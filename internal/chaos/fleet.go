package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bpomdp/internal/fleet"
	"bpomdp/internal/server"
)

// Fleet is an in-process recovery fleet under chaos control: N recoverd
// servers with independent membership views and per-member checkpoint
// stores under one shared root, each behind a real TCP listener. Its one
// fault primitive is Kill — a SIGKILL-equivalent node drop that severs live
// connections, stops the listener, and flips every survivor's membership
// view so the corpse's key range is adopted immediately. Nothing about the
// dead process is shut down gracefully; recovery must come entirely from
// the fsynced checkpoints it left behind.
type Fleet struct {
	root    string
	members []fleet.Member

	mu    sync.Mutex
	nodes map[string]*FleetNode
}

// FleetNode is one member of a chaos fleet.
type FleetNode struct {
	ID   string
	Srv  *server.Server
	HS   *httptest.Server
	View *fleet.Membership

	killed   bool
	spanFile *os.File
}

// FleetOptions tunes fleet construction.
type FleetOptions struct {
	// VNodes is the virtual-node count per member (0 means
	// fleet.DefaultVirtualNodes). Every node and every client must agree.
	VNodes int
	// SpanDir, when set, turns on distributed episode tracing: member <id>
	// writes its bpomdp.span/v1 stream to SpanDir/<id>.spans. A killed
	// member's file keeps whatever it managed to write — exactly what a
	// SIGKILLed process leaves behind — and SpanFiles lists every path for
	// stitching.
	SpanDir string
}

// NewFleet builds and starts a fleet with the given member IDs. Each node
// gets a store at root/<id>, an independent membership view, and a server
// built from base with the Checkpointer and Fleet fields filled in per member
// (the server derives its episode id range from its fleet index); every
// other base field (Model, NewController, ...) is shared. Listeners are
// created before any server so the member addresses are real from the start.
func NewFleet(ids []string, root string, base server.Config, opts FleetOptions) (*Fleet, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("chaos: fleet needs at least 2 members, got %d", len(ids))
	}
	f := &Fleet{root: root, nodes: make(map[string]*FleetNode, len(ids))}
	storeFor := func(id string) (server.Checkpointer, error) {
		return server.NewDirCheckpointer(filepath.Join(root, id))
	}
	for _, id := range ids {
		if _, dup := f.nodes[id]; dup {
			return nil, fmt.Errorf("chaos: duplicate member id %q", id)
		}
		f.nodes[id] = &FleetNode{ID: id, HS: httptest.NewUnstartedServer(nil)}
		f.members = append(f.members, fleet.Member{ID: id})
	}
	for i := range f.members {
		f.members[i].Addr = "http://" + f.nodes[f.members[i].ID].HS.Listener.Addr().String()
	}
	for _, id := range ids {
		view, err := fleet.NewMembership(f.members, opts.VNodes)
		if err != nil {
			f.Close()
			return nil, err
		}
		own, err := storeFor(id)
		if err != nil {
			f.Close()
			return nil, err
		}
		cfg := base
		cfg.Checkpointer = own
		cfg.Fleet = &server.FleetConfig{Self: id, Membership: view, StoreFor: storeFor}
		n := f.nodes[id]
		if opts.SpanDir != "" {
			sf, err := os.Create(filepath.Join(opts.SpanDir, id+".spans"))
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("chaos: member %q span file: %w", id, err)
			}
			n.spanFile = sf
			cfg.SpanTrace = sf
			cfg.Node = id
		}
		srv, err := server.New(cfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("chaos: member %q: %w", id, err)
		}
		n.Srv, n.View = srv, view
		n.HS.Config.Handler = srv
		n.HS.Start()
	}
	return f, nil
}

// Members returns the fleet's member list (id + base URL), in construction
// order — the list a FleetClient should be built from.
func (f *Fleet) Members() []fleet.Member {
	out := make([]fleet.Member, len(f.members))
	copy(out, f.members)
	return out
}

// Node returns the named member, or nil.
func (f *Fleet) Node(id string) *FleetNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[id]
}

// Root returns the shared checkpoint root (per-member stores live at
// Root()/<id>).
func (f *Fleet) Root() string { return f.root }

// SpanFiles returns every member's span-file path in construction order, or
// nil when the fleet was built without FleetOptions.SpanDir. Killed members'
// files are included — their spans are half of any cross-node story.
func (f *Fleet) SpanFiles() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, m := range f.members {
		if n := f.nodes[m.ID]; n != nil && n.spanFile != nil {
			out = append(out, n.spanFile.Name())
		}
	}
	return out
}

// Kill drops the named member as a SIGKILL would: in-flight connections are
// severed mid-stream, the listener stops accepting, and no shutdown hook
// runs. Every survivor's membership view is then flipped, triggering eager
// adoption of the dead member's episodes from its checkpoint store. Returns
// the total number of episodes survivors adopted.
func (f *Fleet) Kill(id string) (int, error) {
	f.mu.Lock()
	n, ok := f.nodes[id]
	if !ok {
		f.mu.Unlock()
		return 0, fmt.Errorf("chaos: unknown member %q", id)
	}
	if n.killed {
		f.mu.Unlock()
		return 0, fmt.Errorf("chaos: member %q already killed", id)
	}
	n.killed = true
	survivors := f.liveLocked(id)
	f.mu.Unlock()

	n.HS.CloseClientConnections()
	n.HS.Close()

	adopted := 0
	var firstErr error
	for _, s := range survivors {
		got, err := s.Srv.MarkMemberDown(id)
		adopted += got
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chaos: survivor %q: %w", s.ID, err)
		}
	}
	return adopted, firstErr
}

// Survivors returns the live members, sorted by id.
func (f *Fleet) Survivors() []*FleetNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveLocked("")
}

func (f *Fleet) liveLocked(except string) []*FleetNode {
	var out []*FleetNode
	for id, n := range f.nodes {
		if id != except && !n.killed {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ObserveBytes posts one observation straight to one member, no redirects
// followed, and returns the raw status and body bytes: on success the body
// is the decision the member answered with. Chaos tests use it to
// pin down byte-identical replay of a terminal decision across an owner
// kill — the FleetClient would decode and re-encode, hiding encoding drift.
func (f *Fleet) ObserveBytes(memberID string, episodeID uint64, key string, req server.ObservationRequest) (int, []byte, error) {
	n := f.Node(memberID)
	if n == nil {
		return 0, nil, fmt.Errorf("chaos: unknown member %q", memberID)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	c := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	hr, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/episodes/%d/observations", n.HS.URL, episodeID), bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if key != "" {
		hr.Header.Set(server.HeaderEpisodeKey, key)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// OpenEpisodes sums open episodes across live members.
func (f *Fleet) OpenEpisodes() int {
	total := 0
	for _, n := range f.Survivors() {
		total += n.Srv.OpenEpisodes()
	}
	return total
}

// Close stops every still-live member and closes their span files.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		if !n.killed && n.HS != nil {
			n.killed = true
			n.HS.Close()
		}
		if n.spanFile != nil {
			_ = n.spanFile.Close()
			n.spanFile = nil
		}
	}
}
