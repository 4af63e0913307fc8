package campaign

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// statusServer is the campaign's minimal read-only HTTP surface: progress
// and journal state as JSON, for operators watching a long grid from
// outside the process. It is deliberately observation-only — no endpoint
// mutates campaign state, so the determinism contract is untouchable from
// the network.
//
//	GET /status   Progress snapshot
//	GET /cells    committed outcomes so far, in grid order
//	GET /journal  raw journal records (durable + this run's commits)
type statusServer struct {
	r   *Runner
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool
}

// ServeStatus starts the read-only status endpoint on addr (host:port;
// :0 picks a free port). It returns the bound address. Stop with
// CloseStatus; Run does not require the server.
func (r *Runner) ServeStatus(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("campaign status server: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Progress())
	})
	mux.HandleFunc("/cells", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.committedCells())
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		recs := append([]Record(nil), r.journal.Records()...)
		r.mu.Unlock()
		writeJSON(w, recs)
	})
	s := &statusServer{r: r, ln: ln, srv: &http.Server{Handler: mux}}
	r.srv = s
	go func() {
		// ErrServerClosed on shutdown is the expected exit.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// CloseStatus stops the status endpoint if one is running.
func (r *Runner) CloseStatus() {
	if r.srv == nil {
		return
	}
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	if !r.srv.closed {
		r.srv.closed = true
		r.srv.srv.Close()
	}
}

// committedCells returns the merged view of everything committed so far:
// grid cells in canonical order, uncommitted ones marked pending.
func (r *Runner) committedCells() []MergedCell {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MergedCell, 0, len(r.cells))
	for _, c := range r.cells {
		mc := MergedCell{Cell: c, Status: "pending"}
		if rec, ok := r.outcomes[c.Key]; ok {
			mc.Status = rec.Status
			mc.Attempts = rec.Attempts
			mc.Result = rec.Result
			mc.Error = rec.Error
		}
		out = append(out, mc)
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
