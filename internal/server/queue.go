package server

import (
	"context"
	"encoding/json"
	"sync"

	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobInfo is the wire representation of a job (GET /v1/jobs/{id} and the
// body of a 202 Accepted).
type JobInfo struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Kind    string `json:"kind"`
	Key     string `json:"key"`
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
	// Progress is the latest update the job's campaign reported.
	Progress *telemetry.ProgressUpdate `json:"progress,omitempty"`
	Result   json.RawMessage           `json:"result,omitempty"`
	// Stages is the per-stage wall-time breakdown derived from the job's
	// trace (queue wait, plan compile, sharded run, merge). Present as soon
	// as the first staged span has started; see GET /v1/jobs/{id}/trace for
	// the full span tree.
	Stages []trace.StageTiming `json:"stages,omitempty"`
}

// Job is one submitted campaign moving through the queue.
type Job struct {
	ID  string
	Req *CampaignRequest // normalized
	Key string

	// root spans the job end to end and qspan covers the time spent
	// waiting in the queue. The worker parents the campaign's trace spans
	// under root, so /v1/jobs/{id}/trace (root.Trace()) shows queue wait,
	// plan compile, every engine shard and the merge as one tree.
	root  *trace.Span
	qspan *trace.Span

	mu     sync.Mutex
	state  string
	errMsg string
	result []byte // marshaled ResultEnvelope, set when state == done
	etag   string
	cancel context.CancelFunc
	// progress is the latest update from the job's campaign (nil before
	// the first). observe replaces it and never writes through it, so a
	// reader may keep the pointer after releasing mu.
	progress *telemetry.ProgressUpdate
	// progressed is closed by the next update; event streams wait on it.
	// It is made when a stream first waits, so a job no stream watches
	// keeps none.
	progressed chan struct{}

	// stages is the job's final stage breakdown, computed once when it
	// reaches a terminal state: its trace is complete by then, so Info
	// stops rebuilding it.
	stages []trace.StageTiming

	// done is closed exactly once when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, req *CampaignRequest, key string, parent *trace.Traceparent) *Job {
	tr, root := trace.New("job", parent)
	tr.SetRecorder(trace.Default)
	root.SetAttr("job_id", id)
	root.SetAttr("kind", req.Kind)
	q := root.StartChild("queue.wait")
	q.SetStage("queue")
	return &Job{
		ID:    id,
		Req:   req,
		Key:   key,
		root:  root,
		qspan: q,
		state: StateQueued,
		done:  make(chan struct{}),
	}
}

// TraceSnapshot materializes the job's trace tree (GET /v1/jobs/{id}/trace).
func (j *Job) TraceSnapshot() *trace.Snapshot { return j.root.Trace().Snapshot() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Info snapshots the job for the wire, including the result body when
// done. The result bytes are exactly the cached campaign body, so a
// client reading a finished job and a client hitting the cache see
// byte-identical payloads.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:       j.ID,
		State:    j.state,
		Kind:     j.Req.Kind,
		Key:      j.Key,
		TraceID:  j.root.Trace().ID().String(),
		Error:    j.errMsg,
		Progress: j.progress,
	}
	switch j.state {
	case StateQueued, StateRunning:
		if snap := j.TraceSnapshot(); snap != nil {
			info.Stages = snap.Stages
		}
	default:
		info.Stages = j.stages
	}
	if j.state == StateDone {
		info.Result = json.RawMessage(j.result)
	}
	return info
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ETag returns the result ETag ("" until done).
func (j *Job) ETag() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.etag
}

// markRunning moves queued → running, storing the cancel func for DELETE.
// It reports false if the job was canceled while queued (the worker then
// skips it).
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.qspan.End()
	return true
}

// observe receives a telemetry progress update from the job's context
// and wakes the event streams waiting on it. It never blocks on a stream:
// one that falls behind reads the latest update when it wakes.
func (j *Job) observe(u telemetry.ProgressUpdate) {
	j.mu.Lock()
	j.progress = &u
	if j.progressed != nil {
		close(j.progressed)
		j.progressed = nil
	}
	j.mu.Unlock()
}

// watchProgress returns the latest update (nil before the first) and a
// channel the next update closes.
func (j *Job) watchProgress() (*telemetry.ProgressUpdate, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.progressed == nil {
		j.progressed = make(chan struct{})
	}
	return j.progress, j.progressed
}

// finish moves the job to a terminal state and reports whether this call
// ended it: the first terminal state wins, which only matters when a job
// canceled while queued is later flushed by the drain.
func (j *Job) finish(state string, result []byte, etag string, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return false
	}
	j.settle(state, result, etag, errMsg)
	return true
}

// settle records a terminal state under j.mu, settles the job's spans and
// computes its final stage breakdown: every campaign span has ended before
// the root does. Span.End is idempotent, so the canceled-while-queued path
// (which never ran markRunning) and the normal path converge here safely.
func (j *Job) settle(state string, result []byte, etag string, errMsg string) {
	j.state = state
	j.result = result
	j.etag = etag
	j.errMsg = errMsg
	j.cancel = nil
	j.qspan.End()
	j.root.SetAttr("state", state)
	if errMsg != "" {
		j.root.SetAttr("error", errMsg)
	}
	j.root.End()
	if snap := j.TraceSnapshot(); snap != nil {
		j.stages = snap.Stages
	}
	close(j.done)
}

// Cancel requests cancellation. A queued job is finished as canceled on
// the spot, under the lock markRunning takes, and Cancel reports true so
// the caller counts it. A running job has its context canceled and
// reaches the canceled state when the engine unwinds at the next shard
// boundary, where runJob counts it; Cancel then reports false, as it does
// for a job already ended.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state == StateQueued {
		j.settle(StateCanceled, nil, "", context.Canceled.Error())
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return false
}
