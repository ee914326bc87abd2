// Package geometry implements the geometry of locking (Section 5.3 of Kung
// & Papadimitriou 1979) for pairs of locked transactions.
//
// The joint progress of two transactions T1 (horizontal) and T2 (vertical)
// is a point in the integer "progress space" [0,n1] × [0,n2], where ni is
// the number of ops (lock, unlock and data steps) of Ti. Locking imposes
// forbidden rectangular regions — blocks — where both transactions would
// hold the same locking variable. A schedule corresponds to a monotone
// staircase path from the origin O to the final point F avoiding all
// blocks.
//
// The package computes:
//
//   - the blocks of a locked system (Figure 3),
//   - the deadlock region D: reachable points from which F cannot be
//     reached (Figure 3),
//   - the side (above/below) a path passes each block, hence whether the
//     path is homotopic to a serial schedule — the elementary-transformation
//     serializability test of Figure 4(b,c),
//   - the 2PL common-point property that keeps all blocks connected
//     (Figure 4(d)),
//   - ASCII renderings of all of the above.
package geometry

import (
	"fmt"
	"sort"
	"strings"

	"optcc/internal/core"
	"optcc/internal/locking"
)

// Point is a progress point: X ops of the first transaction and Y ops of
// the second have executed.
type Point struct {
	X, Y int
}

// Block is a forbidden rectangle: while T1's progress lies in [X1, X2] and
// T2's in [Y1, Y2] (inclusive, in progress coordinates), both transactions
// would hold LV.
type Block struct {
	LV             string
	X1, X2, Y1, Y2 int
}

// Contains reports whether the progress point lies inside the block.
func (b Block) Contains(p Point) bool {
	return p.X >= b.X1 && p.X <= b.X2 && p.Y >= b.Y1 && p.Y <= b.Y2
}

// Overlaps reports whether two blocks share a point.
func (b Block) Overlaps(o Block) bool {
	return b.X1 <= o.X2 && o.X1 <= b.X2 && b.Y1 <= o.Y2 && o.Y1 <= b.Y2
}

// String renders the block.
func (b Block) String() string {
	return fmt.Sprintf("%s:[%d,%d]x[%d,%d]", b.LV, b.X1, b.X2, b.Y1, b.Y2)
}

// Side locates a block relative to a monotone path that avoids it.
type Side int

const (
	// SideUnknown: the path never visits the block's column range (cannot
	// happen for complete paths, which span every column).
	SideUnknown Side = iota
	// BlockAbove: the path passes below-right of the block.
	BlockAbove
	// BlockBelow: the path passes above-left of the block.
	BlockBelow
)

// String names the side.
func (s Side) String() string {
	switch s {
	case BlockAbove:
		return "above"
	case BlockBelow:
		return "below"
	default:
		return "unknown"
	}
}

// Space is the progress space of two locked transactions.
type Space struct {
	// LS is the locked system; T1 and T2 index the two transactions.
	LS     *locking.System
	T1, T2 int
	// N1, N2 are the op counts (the extents of the axes).
	N1, N2 int
	// Blocks are the forbidden rectangles.
	Blocks []Block
}

// NewSpace builds the progress space for transactions t1 (horizontal axis)
// and t2 (vertical axis) of a locked system. A lock variable held during
// span [l, u) of ops produces, for each pair of spans across the two
// transactions, the block [l1+1, u1] × [l2+1, u2]: progress p means "p ops
// executed", so the lock is held from just after the lock op to the point
// before the unlock executes.
func NewSpace(ls *locking.System, t1, t2 int) (*Space, error) {
	if err := ls.Validate(); err != nil {
		return nil, err
	}
	if t1 == t2 || t1 < 0 || t2 < 0 || t1 >= len(ls.Txs) || t2 >= len(ls.Txs) {
		return nil, fmt.Errorf("geometry: invalid transaction pair (%d, %d)", t1, t2)
	}
	sp := &Space{
		LS: ls, T1: t1, T2: t2,
		N1: len(ls.Txs[t1].Ops),
		N2: len(ls.Txs[t2].Ops),
	}
	spans1 := ls.LockSpans(t1)
	spans2 := ls.LockSpans(t2)
	// Blocks come out in lock-variable order, so renderings and the
	// figures that print sp.Blocks are the same on every run.
	lvs := make([]string, 0, len(spans1))
	for lv := range spans1 {
		lvs = append(lvs, lv)
	}
	sort.Strings(lvs)
	for _, lv := range lvs {
		ss1 := spans1[lv]
		ss2, ok := spans2[lv]
		if !ok {
			continue
		}
		for _, s1 := range ss1 {
			for _, s2 := range ss2 {
				sp.Blocks = append(sp.Blocks, Block{
					LV: lv,
					X1: s1[0] + 1, X2: s1[1],
					Y1: s2[0] + 1, Y2: s2[1],
				})
			}
		}
	}
	return sp, nil
}

// Forbidden reports whether the progress point lies inside some block.
func (sp *Space) Forbidden(p Point) bool {
	for _, b := range sp.Blocks {
		if b.Contains(p) {
			return true
		}
	}
	return false
}

// inGrid reports whether p is a valid progress point.
func (sp *Space) inGrid(p Point) bool {
	return p.X >= 0 && p.X <= sp.N1 && p.Y >= 0 && p.Y <= sp.N2
}

// ReachableFromO computes the set of points reachable from the origin by
// monotone moves avoiding blocks, as a [N1+1][N2+1] boolean grid.
func (sp *Space) ReachableFromO() [][]bool {
	r := newGrid(sp.N1+1, sp.N2+1)
	if !sp.Forbidden(Point{0, 0}) {
		r[0][0] = true
	}
	for x := 0; x <= sp.N1; x++ {
		for y := 0; y <= sp.N2; y++ {
			if r[x][y] || sp.Forbidden(Point{x, y}) {
				continue
			}
			if x > 0 && r[x-1][y] {
				r[x][y] = true
			}
			if y > 0 && r[x][y-1] {
				r[x][y] = true
			}
		}
	}
	return r
}

// CanReachF computes the set of points from which F = (N1, N2) is
// reachable by monotone moves avoiding blocks.
func (sp *Space) CanReachF() [][]bool {
	s := newGrid(sp.N1+1, sp.N2+1)
	if !sp.Forbidden(Point{sp.N1, sp.N2}) {
		s[sp.N1][sp.N2] = true
	}
	for x := sp.N1; x >= 0; x-- {
		for y := sp.N2; y >= 0; y-- {
			if s[x][y] || sp.Forbidden(Point{x, y}) {
				continue
			}
			if x < sp.N1 && s[x+1][y] {
				s[x][y] = true
			}
			if y < sp.N2 && s[x][y+1] {
				s[x][y] = true
			}
		}
	}
	return s
}

// DeadlockRegion returns the points that are reachable from O, not
// forbidden, and from which F cannot be reached — region D of Figure 3.
// Any progress curve entering D is doomed.
func (sp *Space) DeadlockRegion() []Point {
	r := sp.ReachableFromO()
	s := sp.CanReachF()
	var out []Point
	for x := 0; x <= sp.N1; x++ {
		for y := 0; y <= sp.N2; y++ {
			if r[x][y] && !s[x][y] {
				out = append(out, Point{x, y})
			}
		}
	}
	return out
}

// HasDeadlock reports whether the deadlock region is non-empty.
func (sp *Space) HasDeadlock() bool { return len(sp.DeadlockRegion()) > 0 }

func newGrid(nx, ny int) [][]bool {
	g := make([][]bool, nx)
	cells := make([]bool, nx*ny)
	for i := range g {
		g[i], cells = cells[:ny], cells[ny:]
	}
	return g
}

// PathFromMoves converts a move sequence (0 = T1 advances, 1 = T2
// advances) into the path of visited points, verifying the path stays in
// the grid and avoids all blocks.
func (sp *Space) PathFromMoves(moves []int) ([]Point, error) {
	p := Point{0, 0}
	path := []Point{p}
	for i, m := range moves {
		switch m {
		case 0:
			p.X++
		case 1:
			p.Y++
		default:
			return nil, fmt.Errorf("geometry: move %d at %d invalid", m, i)
		}
		if !sp.inGrid(p) {
			return nil, fmt.Errorf("geometry: path leaves grid at %v", p)
		}
		if sp.Forbidden(p) {
			return nil, fmt.Errorf("geometry: path enters block at %v", p)
		}
		path = append(path, p)
	}
	return path, nil
}

// MovesFromOpOrder converts a two-transaction op interleaving (values must
// be the space's T1/T2 indices) to moves.
func (sp *Space) MovesFromOpOrder(order []int) ([]int, error) {
	moves := make([]int, len(order))
	for i, tx := range order {
		switch tx {
		case sp.T1:
			moves[i] = 0
		case sp.T2:
			moves[i] = 1
		default:
			return nil, fmt.Errorf("geometry: op order references transaction %d", tx)
		}
	}
	return moves, nil
}

// SideOf determines on which side of the path the block lies. The path
// must be complete (from O to F) and avoid the block; the side is well
// defined because a monotone path cannot cross a rectangle's row range
// within its column range without entering it.
func (sp *Space) SideOf(path []Point, b Block) (Side, error) {
	for _, p := range path {
		if p.X >= b.X1 && p.X <= b.X2 {
			if p.Y > b.Y2 {
				return BlockBelow, nil
			}
			if p.Y < b.Y1 {
				return BlockAbove, nil
			}
			return SideUnknown, fmt.Errorf("geometry: path point %v inside block %v", p, b)
		}
	}
	return SideUnknown, fmt.Errorf("geometry: path never spans block %v columns", b)
}

// PathSerializable reports whether the path is homotopic to a serial
// schedule: every block lies on the same side of the path (Figure 4(b)).
// Mixed sides mean the path separates blocks and is pinned away from both
// boundaries (Figure 4(c)).
func (sp *Space) PathSerializable(path []Point) (bool, error) {
	var above, below bool
	for _, b := range sp.Blocks {
		side, err := sp.SideOf(path, b)
		if err != nil {
			return false, err
		}
		switch side {
		case BlockAbove:
			above = true
		case BlockBelow:
			below = true
		}
	}
	return !(above && below), nil
}

// CommonPoint returns a point contained in every block, if one exists —
// the 2PL picture of Figure 4(d): all blocks share the phase-shift point
// u, which keeps them connected and forces every avoiding path to put them
// all on one side.
func (sp *Space) CommonPoint() (Point, bool) {
	if len(sp.Blocks) == 0 {
		return Point{}, false
	}
	x1, x2 := 0, sp.N1
	y1, y2 := 0, sp.N2
	for _, b := range sp.Blocks {
		if b.X1 > x1 {
			x1 = b.X1
		}
		if b.X2 < x2 {
			x2 = b.X2
		}
		if b.Y1 > y1 {
			y1 = b.Y1
		}
		if b.Y2 < y2 {
			y2 = b.Y2
		}
	}
	if x1 <= x2 && y1 <= y2 {
		return Point{x1, y1}, true
	}
	return Point{}, false
}

// SeparatingPathExists reports whether some complete monotone path avoiding
// all blocks leaves at least one block above and one below — i.e. whether
// the locked pair admits a non-serializable execution (Figure 4(c)). It
// uses dynamic programming over progress points × per-block side
// assignments.
func (sp *Space) SeparatingPathExists() bool {
	nb := len(sp.Blocks)
	if nb < 2 {
		return false
	}
	// side assignment encoded base-3: 0 unknown, 1 above, 2 below.
	pow := make([]int, nb+1)
	pow[0] = 1
	for i := 1; i <= nb; i++ {
		pow[i] = pow[i-1] * 3
	}
	sideAt := func(mask, i int) int { return (mask / pow[i]) % 3 }
	setSide := func(mask, i, s int) int { return mask + (s-sideAt(mask, i))*pow[i] }

	classify := func(p Point, mask int) (int, bool) {
		for i, b := range sp.Blocks {
			if p.X >= b.X1 && p.X <= b.X2 {
				var s int
				switch {
				case p.Y > b.Y2:
					s = 2 // block below path
				case p.Y < b.Y1:
					s = 1 // block above path
				default:
					return 0, false // inside block
				}
				cur := sideAt(mask, i)
				if cur == 0 {
					mask = setSide(mask, i, s)
				} else if cur != s {
					// Cannot happen geometrically; defensive.
					return 0, false
				}
			}
		}
		return mask, true
	}

	type state struct {
		p    Point
		mask int
	}
	start, ok := classify(Point{0, 0}, 0)
	if !ok {
		return false
	}
	seen := map[state]bool{{Point{0, 0}, start}: true}
	queue := []state{{Point{0, 0}, start}}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		if st.p.X == sp.N1 && st.p.Y == sp.N2 {
			hasAbove, hasBelow := false, false
			for i := 0; i < nb; i++ {
				switch sideAt(st.mask, i) {
				case 1:
					hasAbove = true
				case 2:
					hasBelow = true
				}
			}
			if hasAbove && hasBelow {
				return true
			}
			continue
		}
		for _, next := range []Point{{st.p.X + 1, st.p.Y}, {st.p.X, st.p.Y + 1}} {
			if !sp.inGrid(next) || sp.Forbidden(next) {
				continue
			}
			mask, ok := classify(next, st.mask)
			if !ok {
				continue
			}
			ns := state{next, mask}
			if !seen[ns] {
				seen[ns] = true
				queue = append(queue, ns)
			}
		}
	}
	return false
}

// DataProjection extracts the data schedule realized by a move sequence:
// the base-system steps executed along the path, in order.
func (sp *Space) DataProjection(moves []int) (core.Schedule, error) {
	pos := []int{0, 0}
	txs := []int{sp.T1, sp.T2}
	var data core.Schedule
	for _, m := range moves {
		if m != 0 && m != 1 {
			return nil, fmt.Errorf("geometry: invalid move %d", m)
		}
		tx := txs[m]
		if pos[m] >= len(sp.LS.Txs[tx].Ops) {
			return nil, fmt.Errorf("geometry: move past end of transaction %d", tx)
		}
		op := sp.LS.Txs[tx].Ops[pos[m]]
		if op.Kind == locking.OpStep {
			data = append(data, op.Step)
		}
		pos[m]++
	}
	return data, nil
}

// Render draws the progress space as ASCII art: '#' blocks, 'D' deadlock
// region, '*' the path (if given), 'O' origin, 'F' final point, '.'
// elsewhere. Rows are printed top-down (T2 progress decreasing).
func (sp *Space) Render(path []Point) string {
	doomed := map[Point]bool{}
	for _, p := range sp.DeadlockRegion() {
		doomed[p] = true
	}
	onPath := map[Point]bool{}
	for _, p := range path {
		onPath[p] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "progress space %s × %s (blocks: %v)\n",
		sp.LS.Txs[sp.T1].Name, sp.LS.Txs[sp.T2].Name, sp.Blocks)
	for y := sp.N2; y >= 0; y-- {
		for x := 0; x <= sp.N1; x++ {
			p := Point{x, y}
			var ch byte
			switch {
			case onPath[p]:
				ch = '*'
			case sp.Forbidden(p):
				ch = '#'
			case doomed[p]:
				ch = 'D'
			case x == 0 && y == 0:
				ch = 'O'
			case x == sp.N1 && y == sp.N2:
				ch = 'F'
			default:
				ch = '.'
			}
			b.WriteByte(ch)
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
