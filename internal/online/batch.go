package online

import "optcc/internal/core"

// BatchTrier is a scheduler that can decide several step requests in one
// call. TryBatch(ids) must be semantically equivalent to calling Try on
// each id in order — decisions for earlier ids take effect before later
// ids are decided — with the ids belonging to distinct transactions. No
// engine in this module calls it: both dispatch engines offer every
// request on its own through Try.
//
// Its only consumer is the bench module's tracer, which type-asserts for
// it; the interface and the native TryBatch methods go once bench stops
// referencing them.
type BatchTrier interface {
	TryBatch(ids []core.StepID) []Decision
}
