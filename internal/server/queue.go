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

// ProgressInfo is the live progress of a running job, fed by the engine's
// per-shard completion hook through the job's context observer.
type ProgressInfo struct {
	Component string  `json:"component,omitempty"`
	Done      float64 `json:"done"`
	Total     float64 `json:"total"`
	Fluence   float64 `json:"fluence,omitempty"`
	Events    int64   `json:"events,omitempty"`
}

// JobInfo is the wire representation of a job (GET /v1/jobs/{id} and the
// body of a 202 Accepted).
type JobInfo struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	TraceID  string          `json:"trace_id,omitempty"`
	Error    string          `json:"error,omitempty"`
	Progress *ProgressInfo   `json:"progress,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
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

	// tr is the job's trace; root spans the job end to end and qspan covers
	// the time spent waiting in the queue. The worker parents the campaign's
	// trace spans under root, so /v1/jobs/{id}/trace shows queue wait,
	// plan compile, every engine shard and the merge as one tree.
	tr    *trace.Trace
	root  *trace.Span
	qspan *trace.Span

	mu       sync.Mutex
	state    string
	errMsg   string
	result   []byte // marshaled ResultEnvelope, set when state == done
	etag     string
	progress ProgressInfo
	hasProg  bool
	cancel   context.CancelFunc
	subs     map[chan ProgressInfo]struct{}

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
		tr:    tr,
		root:  root,
		qspan: q,
		state: StateQueued,
		subs:  map[chan ProgressInfo]struct{}{},
		done:  make(chan struct{}),
	}
}

// TraceSnapshot materializes the job's trace tree (GET /v1/jobs/{id}/trace).
func (j *Job) TraceSnapshot() *trace.Snapshot { return j.tr.Snapshot() }

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
		ID:      j.ID,
		State:   j.state,
		Kind:    j.Req.Kind,
		Key:     j.Key,
		TraceID: j.tr.ID().String(),
		Error:   j.errMsg,
	}
	switch j.state {
	case StateQueued, StateRunning:
		if snap := j.tr.Snapshot(); snap != nil {
			info.Stages = snap.Stages
		}
	default:
		info.Stages = j.stages
	}
	if j.hasProg {
		p := j.progress
		info.Progress = &p
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

// observe receives a telemetry progress update from the job's context.
// Subscriber channels get a non-blocking send: SSE writers that fall
// behind miss intermediate frames, never block the simulation.
func (j *Job) observe(u telemetry.ProgressUpdate) {
	j.mu.Lock()
	p := ProgressInfo{
		Component: u.Component,
		Done:      u.Done,
		Total:     u.Total,
		Fluence:   u.Fluence,
		Events:    u.Events,
	}
	j.progress = p
	j.hasProg = true
	subs := make([]chan ProgressInfo, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// subscribe registers a progress channel; the current progress (if any) is
// primed into it so late subscribers see state immediately.
func (j *Job) subscribe() chan ProgressInfo {
	ch := make(chan ProgressInfo, 8)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	if j.hasProg {
		ch <- j.progress
	}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan ProgressInfo) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// finish moves the job to a terminal state. Calling it twice is a bug
// everywhere except the canceled-while-queued race, where the first
// terminal state wins.
func (j *Job) finish(state string, result []byte, etag string, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return false
	}
	j.state = state
	j.result = result
	j.etag = etag
	j.errMsg = errMsg
	j.cancel = nil
	j.endTrace(state, errMsg)
	close(j.done)
	return true
}

// endTrace settles the job's spans at a terminal state and computes the
// job's final stage breakdown: every campaign span has ended before the
// root does. Span.End is idempotent, so the canceled-while-queued path
// (which never ran markRunning) and the normal path converge here safely.
func (j *Job) endTrace(state, errMsg string) {
	j.qspan.End()
	j.root.SetAttr("state", state)
	if errMsg != "" {
		j.root.SetAttr("error", errMsg)
	}
	j.root.End()
	if snap := j.tr.Snapshot(); snap != nil {
		j.stages = snap.Stages
	}
}

// Cancel requests cancellation: a queued job is finished as canceled on
// the spot; a running job has its context canceled and reaches the
// canceled state when the engine unwinds at the next shard boundary.
// It reports whether the request had any effect.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = context.Canceled.Error()
		j.endTrace(StateCanceled, j.errMsg)
		close(j.done)
		j.mu.Unlock()
		return true
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	j.mu.Unlock()
	return false
}
