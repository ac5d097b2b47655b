package service

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/wire"
)

// The async job API: POST /v1/jobs accepts the same batch document as
// /v1/batch but returns a job id immediately instead of blocking the
// connection on N solves. The items run in the background — still one
// worker-gate permit per in-flight solve, still through the plan
// cache — and land at their request index. GET /v1/jobs/{id} reports
// progress; GET /v1/jobs/{id}/stream replays the per-item results as
// NDJSON in item order as they complete, flushing each line, so a
// client consumes plan 0 while plan 7 is still solving. The stream is
// resumable: ?from=K skips the first K items, so a client that
// disconnected mid-batch reattaches at its last confirmed index
// without re-solving anything.
//
// Jobs outlive their submitting connection by design; Server.Close
// cancels the background context and waits for every item worker.
// Unlike /v1/batch (fail-fast, all-or-nothing), a job runs every item
// to completion and records per-item errors inline, so one infeasible
// instance does not poison the rest of a sweep.

// jobStatus values.
const (
	jobRunning  = "running"
	jobDone     = "done"
	jobCanceled = "canceled" // server shut down mid-job
)

// job is one asynchronous batch: per-item NDJSON lines filled in as
// solves complete, plus a broadcast channel stream readers wait on.
type job struct {
	id string

	mu        sync.Mutex
	lines     [][]byte // one NDJSON line per item; nil until complete
	bytes     int64    // Σ len(lines)
	completed int
	errs      int
	status    string
	update    chan struct{} // closed and replaced on every state change
}

// jobItemDoc is one NDJSON stream line: the item's plan, or its error.
type jobItemDoc struct {
	V     int        `json:"v"`
	Index int        `json:"index"`
	Plan  *wire.Plan `json:"plan,omitempty"`
	Code  string     `json:"code,omitempty"`
	Error string     `json:"error,omitempty"`
}

// jobStatusDoc answers POST /v1/jobs and GET /v1/jobs/{id}.
type jobStatusDoc struct {
	V         int    `json:"v"`
	Job       string `json:"job"`
	Status    string `json:"status"`
	Items     int    `json:"items"`
	Completed int    `json:"completed"`
	Errors    int    `json:"errors"`
}

// finishItem records item i's line and wakes every stream reader.
func (j *job) finishItem(i int, line []byte, failed bool) {
	j.mu.Lock()
	if j.lines[i] == nil {
		j.lines[i] = line
		j.bytes += int64(len(line))
		j.completed++
		if failed {
			j.errs++
		}
	}
	j.wakeLocked()
	j.mu.Unlock()
}

// finish marks the job terminal.
func (j *job) finish(status string) {
	j.mu.Lock()
	j.status = status
	j.wakeLocked()
	j.mu.Unlock()
}

// retained reports the job's NDJSON bytes and whether it has finished.
func (j *job) retained() (bytes int64, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes, j.status != jobRunning
}

// wakeLocked rotates the broadcast channel. Callers hold j.mu.
func (j *job) wakeLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

// statusDoc snapshots the job for its status document.
func (j *job) statusDoc() jobStatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatusDoc{
		V: wire.Version, Job: j.id, Status: j.status,
		Items: len(j.lines), Completed: j.completed, Errors: j.errs,
	}
}

// ---------------------------------------------------------------------------
// POST /v1/jobs

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	defer s.track("jobs")()
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var breq batchRequest
	if err := wireUnmarshal(body, &breq, "job request"); err != nil {
		s.fail(w, err)
		return
	}
	if breq.V != wire.Version {
		s.fail(w, fmt.Errorf("%w: job request has v=%d", wire.ErrVersion, breq.V))
		return
	}
	if len(breq.Requests) == 0 {
		s.fail(w, fmt.Errorf("%w: job request has no items", wire.ErrMalformed))
		return
	}
	reqs := make([]engine.Request, len(breq.Requests))
	for i, wr := range breq.Requests {
		if reqs[i], err = wr.Request(); err != nil {
			s.fail(w, fmt.Errorf("request %d: %w", i, err))
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.fail(w, fmt.Errorf("%w: server is shutting down", engine.ErrCanceled))
		return
	}
	s.nextJobID++
	id := fmt.Sprintf("j%d", s.nextJobID)
	if s.clustered() {
		// Namespace ids per replica: jobs are replica-local state, and a
		// client probing the cluster for "j3" must never get a false
		// positive from a replica that happens to run its own third job.
		id = fmt.Sprintf("j%d-%s", s.nextJobID, cluster.ShortID(s.cfg.Self))
	}
	j := &job{
		id:     id,
		lines:  make([][]byte, len(reqs)),
		status: jobRunning,
		update: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.evictFinishedJobsLocked()
	s.jobsWG.Add(1)
	s.mu.Unlock()

	go s.runJob(j, reqs)

	doc, err := wireMarshal(j.statusDoc())
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(doc)
}

// finishedJobBudget bounds the NDJSON bytes finished jobs retain,
// beside Config.MaxJobs: one job of 5k-node plans holds megabytes of
// lines, so MaxJobs of them would pin far more than MaxJobs paper-sized
// jobs.
const finishedJobBudget = 16 << 20

// evictFinishedJobsLocked drops the oldest finished jobs while more than
// Config.MaxJobs jobs are retained or finished jobs hold more than
// s.jobBudget bytes of lines. Running jobs are never evicted (their
// workers hold gate permits; their ids stay resolvable). Callers hold
// s.mu.
func (s *Server) evictFinishedJobsLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	var held int64
	for _, id := range s.jobOrder {
		if j := s.jobs[id]; j != nil {
			if b, finished := j.retained(); finished {
				held += b
			}
		}
	}
	if excess <= 0 && held <= s.jobBudget {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if b, finished := j.retained(); finished && (excess > 0 || held > s.jobBudget) {
			delete(s.jobs, id)
			excess--
			held -= b
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// runJob executes every item, one gate permit per in-flight solve,
// and marks the job terminal once all items have landed. Jobs are
// parented to the server's lifetime, not the submitting request's:
// when the server closes mid-job the remaining items record canceled
// error lines so attached streams terminate cleanly.
func (s *Server) runJob(j *job, reqs []engine.Request) {
	defer s.jobsWG.Done()
	var wg sync.WaitGroup
	canceled := false
	for i := range reqs {
		if !canceled {
			// Guarded by !canceled: after shutdown starts, another select
			// could still win a freed permit and strand it — once canceled,
			// the remaining items are marked without touching the gate.
			canceled = s.acquireCtx(s.jobsCtx) != nil
		}
		if canceled {
			j.finishItem(i, s.jobLine(i, nil, engineCanceled(s.jobsCtx.Err())), true)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer s.release()
			plan, err := s.execute(s.jobsCtx, reqs[i])
			j.finishItem(i, s.jobLine(i, plan, err), err != nil)
		}(i)
	}
	wg.Wait()
	if canceled {
		j.finish(jobCanceled)
		return
	}
	j.finish(jobDone)
}

// jobLine renders one item's NDJSON line.
func (s *Server) jobLine(i int, plan *engine.Plan, err error) []byte {
	doc := jobItemDoc{V: wire.Version, Index: i}
	if err != nil {
		ed := wire.NewErrorDoc(err)
		doc.Code, doc.Error = ed.Code, ed.Error
	} else {
		p := wire.FromPlan(plan)
		doc.Plan = &p
	}
	line, mErr := wire.MarshalCompact(doc)
	if mErr != nil {
		// Marshaling a plan cannot fail for real documents; keep the
		// stream well-formed regardless.
		line, _ = wire.MarshalCompact(jobItemDoc{
			V: wire.Version, Index: i, Code: wire.CodeInternal, Error: mErr.Error(),
		})
	}
	return line
}

// ---------------------------------------------------------------------------
// GET /v1/jobs/{id} and /v1/jobs/{id}/stream

// lookupJob resolves a job id.
func (s *Server) lookupJob(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: no job %q", wire.ErrMalformed, id)
	}
	return j, nil
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	defer s.track("jobs")()
	j, err := s.lookupJob(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.replyDoc(w, j.statusDoc())
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	defer s.track("jobstream")()
	j, err := s.lookupJob(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		from, err = strconv.Atoi(raw)
		if err != nil || from < 0 {
			s.fail(w, fmt.Errorf("%w: bad stream cursor %q (want a non-negative item index)", wire.ErrMalformed, raw))
			return
		}
	}
	j.mu.Lock()
	items := len(j.lines)
	j.mu.Unlock()
	if from > items {
		s.fail(w, fmt.Errorf("%w: stream cursor %d beyond job size %d", wire.ErrMalformed, from, items))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	for i := from; i < items; {
		j.mu.Lock()
		line := j.lines[i]
		update := j.update
		j.mu.Unlock()
		if line != nil {
			if f, ok := chaos.Hit(chaos.StreamWrite); ok {
				// Slow, torn stream write: stall, then flush a prefix of
				// the NDJSON line before the remainder — the client-side
				// scanner must reassemble it transparently.
				if err := chaos.Sleep(r.Context(), f.Delay); err != nil {
					return
				}
				if k := int(f.Frac * float64(len(line))); k > 0 && k < len(line) {
					if _, err := w.Write(line[:k]); err != nil {
						return
					}
					if flusher != nil {
						flusher.Flush()
					}
					line = line[k:]
				}
			}
			if _, err := w.Write(line); err != nil {
				return // client went away; the job keeps running
			}
			if flusher != nil {
				flusher.Flush()
			}
			i++
			continue
		}
		select {
		case <-update:
		case <-r.Context().Done():
			return
		}
	}
}

// jobCounts reports submitted and currently running jobs for /metrics.
func (s *Server) jobCounts() (submitted int64, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status == jobRunning {
			running++
		}
		j.mu.Unlock()
	}
	return s.nextJobID, running
}
