// Package lint is codslint: a static-analysis suite that mechanically
// enforces the engine's concurrency, immutability, and durability
// invariants. The invariants themselves are documented prose
// (ARCHITECTURE.md, "Invariants"); this package turns each one into an
// analyzer that fails the build when a change violates it, so the
// contracts survive contributors who never read the docs.
//
// # Markers
//
// Analyzers find the code they constrain through `cods:` doc-comment
// markers rather than hard-coded symbol names, so the suite keeps
// working as the engine grows:
//
//	cods:writerlock    mutex field serializing writers (DB.mu)
//	cods:lockfree      function that must never take a writer lock
//	cods:blocking      function that may block on IO (WAL append, snapshot)
//	cods:immutable     type never written after construction once published
//	cods:shared-view   method returning internal storage by reference
//	cods:statement     interface whose implementers flow through the WAL
//	cods:stmt-dispatch function dispatching on statement kind
//	cods:stmt-registry package var enumerating every statement kind
//	cods:boundary      package whose errors callers classify with errors.Is
//
// # Analyzers
//
//	lockscope     no blocking calls under a writer lock; cods:lockfree
//	              read paths never acquire one, even transitively
//	pubimmutable  no writes to cods:immutable types outside their
//	              package, including through cods:shared-view aliases
//	errsentinel   errors.Is/As instead of ==; %w when wrapping; no
//	              anonymous errors.New in boundary packages
//	walreplay     every statement kind handled by WAL replay dispatch
//	              and listed in the round-trip registry
//	atomicfield   fields touched via sync/atomic are never accessed
//	              non-atomically
//
// # Suppression
//
// An intentional exception is silenced on its own line (or the line
// above) with
//
//	//lint:ignore codslint/<analyzer> <reason>
//
// The reason is mandatory and the directive must match a finding; the
// driver reports reasonless and stale directives, so every suppression
// in the tree is a reviewed, explained design decision — for example the
// WAL fsync under DB.mu, which is the durability-before-visibility
// ordering working as intended.
//
// # Drivers
//
// cmd/codslint runs the suite standalone (`make lint`) and as a
// `go vet -vettool` plugin; internal/lint/analysistest runs analyzers
// over testdata/src fixtures with inline `// want` expectations. Both
// load packages with internal/lint/loader, which shells out to `go list
// -export` and reads compiler export data — no dependency outside the
// standard library.
package lint
