// Package hotpath is the positive fixture: every annotated function here
// contains a construct the hot path forbids.
package hotpath

type counter struct {
	n int64
}

func unannotated(x int) int { return x + 1 }

//optcc:hotpath
func allocatesSlice(n int) []int {
	return make([]int, n) // want "make allocates"
}

//optcc:hotpath
func allocatesNew() *counter {
	return new(counter) // want "new allocates"
}

//optcc:hotpath
func growsAppend(xs []int, x int) []int {
	return append(xs, x) // want "append may grow and allocate"
}

//optcc:hotpath
func capturesClosure(x int) func() int {
	return func() int { return x } // want "function literal allocates a closure"
}

//optcc:hotpath
func spawns() {
	go unannotated(1) // want "go statement allocates a goroutine"
}

//optcc:hotpath
func concatenates(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//optcc:hotpath
func boxes(x int) any {
	return x // want "implicit conversion of int to interface any boxes the value"
}

//optcc:hotpath
func convertsString(p []byte) string {
	return string(p) // want "conversion copies and allocates"
}

//optcc:hotpath
func callsUnvetted(x int) int {
	return unannotated(x) // want "callee is neither //optcc:hotpath-annotated nor allowlisted"
}

//optcc:hotpath
func sum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

//optcc:hotpath
func callsVariadic(x int) int {
	return sum(x, x) // want "variadic call allocates the argument slice"
}

//optcc:hotpath
func takesAddress() *counter {
	return &counter{n: 1} // want "address-taken composite literal allocates"
}

//optcc:hotpath
func sliceLiteral() {
	xs := []int{1, 2, 3} // want "slice literal allocates"
	_ = xs
}

//optcc:hotpath
func mapLiteral() {
	m := map[string]int{} // want "map literal allocates"
	_ = m
}

// box is generic; its get is not annotated, so calling it through an
// instance from a hot path must still report.
type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

//optcc:hotpath
func callsUnannotatedGeneric(b *box[int]) int {
	return b.get() // want "hotpath\.box\.get: callee is neither //optcc:hotpath-annotated nor allowlisted"
}

func first[T any](xs []T) T { return xs[0] }

//optcc:hotpath
func callsUnannotatedGenericFunc(xs []int) int {
	return first(xs) // want "hotpath\.first: callee is neither"
}
