// Package sim provides a deterministic virtual-time discrete-event
// simulator used as the execution substrate for the SuperNeurons runtime.
//
// The model mirrors a CUDA device: a set of independent serial engines
// (the compute engine and the two DMA copy engines) consume tasks in
// issue order, while a single host thread issues work asynchronously and
// occasionally blocks on events, exactly like cudaEventSynchronize.
//
// Because every engine executes its queue serially and task durations
// are supplied by the caller, the entire schedule can be resolved with
// timestamp propagation: a task starts at
//
//	max(issue time, engine free time, completion of all dependencies)
//
// and finishes start+duration later. This produces the same who-waits-
// on-whom structure as a real stream/event system, deterministically and
// without any wall-clock dependence.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the timeline
// origin.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Event marks the completion point of a submitted task. The zero Event
// is "already complete at time zero", which makes events safe to use
// before any task has produced one.
type Event struct {
	at Time
}

// At returns the virtual time at which the event completes.
func (e Event) At() Time { return e.at }

// DoneBy reports whether the event has completed at time now. This is
// the analogue of cudaEventQuery.
func (e Event) DoneBy(now Time) bool { return e.at <= now }

// Engine is a serially-executing resource: the GPU compute engine or a
// DMA copy engine. Tasks submitted to an engine run one at a time in
// submission order. The zero Engine is idle at time zero.
type Engine struct {
	freeAt Time
	busy   Duration
}

// FreeAt returns the time at which the engine's queue drains.
func (e *Engine) FreeAt() Time { return e.freeAt }

// BusyTime returns the total virtual time the engine spent executing.
func (e *Engine) BusyTime() Duration { return e.busy }

// Submit enqueues a task issued at time issue with the given duration,
// gated on deps. It returns the completion event.
func (e *Engine) Submit(issue Time, dur Duration, deps ...Event) Event {
	if dur < 0 {
		panic("sim: negative task duration")
	}
	start := issue
	for _, d := range deps {
		if d.at > start {
			start = d.at
		}
	}
	if e.freeAt > start {
		start = e.freeAt
	}
	end := start + Time(dur)
	e.freeAt = end
	e.busy += dur
	return Event{at: end}
}

// Timeline is the host thread's clock. The host issues work to engines
// at Now() and advances either by doing synchronous work (Advance) or
// by blocking on events (Wait). The zero Timeline is at time zero.
type Timeline struct {
	now Time
}

// Now returns the host thread's current virtual time.
func (t *Timeline) Now() Time { return t.now }

// Advance moves the host clock forward by d, modeling synchronous
// host-side work such as a cudaMalloc call.
func (t *Timeline) Advance(d Duration) {
	if d < 0 {
		panic("sim: negative advance")
	}
	t.now += Time(d)
}

// Wait blocks the host until the event completes, like
// cudaEventSynchronize. Waiting on an already-complete event is free.
func (t *Timeline) Wait(e Event) {
	if e.at > t.now {
		t.now = e.at
	}
}
