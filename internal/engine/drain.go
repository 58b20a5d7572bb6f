package engine

import (
	"context"
	"errors"
	"time"
)

// ErrDraining is returned by submissions while Drain is flushing in-flight
// work. Unlike ErrOverloaded it is terminal for this engine: the caller
// should fail over, not retry.
var ErrDraining = errors.New("engine: draining")

// Admission states, held in Engine.state. Transitions only move forward:
// accepting -> draining -> closed (Close jumps straight to closed).
const (
	admitAccepting int32 = iota
	admitDraining
	admitClosed
)

// DrainReport is Drain's account of how the in-flight work ended.
type DrainReport struct {
	// Flushed frames completed normally (delivered a result or a per-frame
	// error) between the drain starting and the engine closing.
	Flushed uint64 `json:"flushed"`
	// Shed frames were still queued at the deadline and were handed back
	// to their callers with ErrDraining instead of being run.
	Shed uint64 `json:"shed"`
	// Abandoned frames were still on a worker (or otherwise admitted and
	// unfinished) when the deadline forced the engine shut.
	Abandoned int `json:"abandoned"`
	// Clean is true when every admitted frame flushed before the deadline.
	Clean bool `json:"clean"`
}

// Drain stops admission and flushes in-flight work, bounded by ctx. New
// submissions fail immediately with ErrDraining. If every admitted frame
// completes before ctx expires the drain is clean; otherwise queued frames
// are handed back to their callers as ErrDraining outcomes and the report
// counts what was flushed, shed, and abandoned. The engine is closed either
// way — Drain replaces the all-or-nothing Close for shutdown paths that
// need per-frame accounting (a gateway backend catching SIGTERM).
//
// Safe to call concurrently and more than once: one caller performs the
// drain, the rest observe the closed state and return immediately.
func (e *Engine) Drain(ctx context.Context) DrainReport {
	if !e.state.CompareAndSwap(admitAccepting, admitDraining) {
		// Already draining or closed. Wait for the first drainer (or Close)
		// to finish flushing, then report the terminal counters.
		select {
		case <-e.drained:
		case <-ctx.Done():
		}
		e.wgWaitBounded(ctx)
		return e.drainReport()
	}
	metrics().drains.Inc()
	publishHealthGauge()

	// Admission is stopped; in-flight frames release their reservation as
	// they finish. If none were in flight the drain completes immediately.
	if e.inflight.Load() == 0 {
		e.drainOnce.Do(func() { close(e.drained) })
	}
	clean := false
	// Check the drained signal before racing it against the deadline: a
	// drain that is already complete must be clean even if ctx expired.
	select {
	case <-e.drained:
		clean = true
	default:
		select {
		case <-e.drained:
			clean = true
		case <-ctx.Done():
		}
	}
	if clean {
		// No admitted work remains: no submitter holds a reservation, so no
		// goroutine is blocked sending on e.jobs, and the plain lock in
		// closeNow cannot deadlock.
		e.closeNow()
	} else {
		// Deadline hit with work still admitted. Shed everything queued —
		// delivering ErrDraining per frame — and close the channel while
		// keeping the queue moving so blocked submitters always progress.
		e.shedQueued.Store(true)
		e.closeShedding()
	}
	e.wgWaitBounded(ctx)
	e.state.Store(admitClosed)
	unregisterEngine(e)
	return e.drainReport()
}

func (e *Engine) drainReport() DrainReport {
	shed := e.drainShedN.Load()
	abandoned := int(e.inflight.Load())
	if abandoned < 0 {
		abandoned = 0
	}
	return DrainReport{
		Flushed:   e.drainFlushed.Load(),
		Shed:      shed,
		Abandoned: abandoned,
		Clean:     shed == 0 && abandoned == 0,
	}
}

// wgWaitBounded waits for the workers to exit, giving up when ctx dies so a
// Drain deadline is honoured even with a wedged worker (its goroutine is
// then reported via Abandoned and the leak detector).
func (e *Engine) wgWaitBounded(ctx context.Context) {
	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// shedQueue empties whatever is currently queued, failing each job with
// ErrDraining. Non-blocking: it returns as soon as the queue reads empty.
// Each outcome is delivered on its own goroutine: a Stream whose reader
// has stalled blocks its delivery callback until the reader resumes or the
// stream's context ends, and that must not hold Drain past its deadline.
func (e *Engine) shedQueue() {
	m := metrics()
	for {
		select {
		case j, ok := <-e.jobs:
			if !ok {
				return
			}
			m.queueDepth.Add(-1)
			e.drainShedN.Add(1)
			e.noteShed(&e.sheds.draining, m.shedDraining)
			e.breaker.Release(j.probe)
			e.releaseInflight()
			go e.failJob(j, ErrDraining)
		default:
			return
		}
	}
}

// closeNow closes the job channel exactly once, under the same lock
// submitters hold while sending. Only safe when no submitter can be blocked
// mid-send (inflight == 0 after admission stopped).
func (e *Engine) closeNow() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.mu.Unlock()
}

// closeShedding closes the job channel while legacy blocking submitters may
// still be parked in `e.jobs <- j` holding e.mu.RLock. A plain Lock would
// deadlock against them, so it alternates TryLock attempts with shedQueue
// sweeps: every sweep frees queue capacity, letting a parked submitter
// complete its send and drop its read lock, until the write lock is
// acquired and the channel can be closed. A final sweep sheds anything that
// squeezed in between the last sweep and the close.
func (e *Engine) closeShedding() {
	for {
		if e.mu.TryLock() {
			if !e.closed {
				e.closed = true
				close(e.jobs)
			}
			e.mu.Unlock()
			e.shedQueue()
			return
		}
		e.shedQueue()
		time.Sleep(100 * time.Microsecond)
	}
}

// failJob delivers err to the job's caller and finishes its trace.
func (e *Engine) failJob(j *job, err error) {
	j.tr.Finish(err)
	j.deliver(j.idx, result{}, err)
	if j.done != nil {
		j.done.Done()
	}
}

// releaseInflight returns one admission reservation; the last one out after
// admission stops signals drain completion.
func (e *Engine) releaseInflight() {
	if e.inflight.Add(-1) == 0 && e.state.Load() != admitAccepting {
		e.drainOnce.Do(func() { close(e.drained) })
	}
}
