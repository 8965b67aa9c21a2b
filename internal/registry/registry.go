// Package registry manages many named Bayesian-network models inside one
// serving process: N tenants × M model versions behind a single evserve.
//
// Each model is a sequence of immutable versions. A version bundles a
// network with its compiled engine (and therefore its own result cache and
// flight recorder — cache entries can never cross model or version
// boundaries, because the cache lives inside the engine). Compilation
// always happens in the background, off the request path; when it
// finishes, the new version is published with one atomic pointer swap.
// Queries already in flight keep the version they acquired and drain
// against it; the swapped-out version's pooled state is released only
// after the last such query completes:
//
//	compile (background) → publish (atomic swap) → drain (refcount) → release
//
// Acquire/Release are wait-free on the hot path: an acquire is one atomic
// load plus one increment, with a re-check that detects a concurrent swap.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evprop"
)

// Typed errors the serving layer maps onto HTTP statuses.
var (
	// ErrNotFound reports a model name with no registry entry.
	ErrNotFound = errors.New("registry: model not found")
	// ErrNotReady reports a model whose first compile has not finished
	// (or failed — see Model info for the cause).
	ErrNotReady = errors.New("registry: model not ready")
	// ErrBadName reports a model name outside [A-Za-z0-9._-]{1,64}.
	ErrBadName = errors.New("registry: bad model name")
)

// Registry is a concurrent set of named models. All methods are safe for
// concurrent use; the query path (Acquire) never blocks on the control
// path (Load/Reload/Delete), which mutates through atomic publication.
type Registry struct {
	opts evprop.Options // compile-options template shared by every model
	mu   sync.RWMutex
	m    map[string]*Model
}

// New returns an empty registry. Every model compiles with the given
// options (workers, scheduler, cache size, recorder configuration).
func New(opts evprop.Options) *Registry {
	return &Registry{opts: opts, m: map[string]*Model{}}
}

// Version is one immutable published build of a model: the source network,
// its compiled engine, and drain bookkeeping. The engine's result cache
// and flight recorder belong to exactly this version, so a swapped-out
// version's cache is structurally fenced out — no later query can reach it.
type Version struct {
	Net    *evprop.Network
	Engine *evprop.Engine
	// ID increases by one per publish within a model.
	ID int64
	// Published is the swap instant; CompileTime how long Compile took.
	Published   time.Time
	CompileTime time.Duration
	// Fingerprint is Engine.Fingerprint in its String form, which the model
	// info and every audit record of the version carry.
	Fingerprint string

	// refs counts the publisher (1) plus every in-flight acquire. When it
	// reaches zero — the version was swapped out and the last query
	// drained — the engine's cache is invalidated, exactly once. Nothing
	// else is torn down: the workers are the process's, not the engine's.
	refs    atomic.Int64
	retired sync.Once
	// done is release as a func value, bound once at publish so that
	// Acquire hands it out without allocating a closure per query.
	done func()
}

// release drops one reference; the zero crossing retires the version.
func (v *Version) release() {
	if v.refs.Add(-1) == 0 {
		v.retired.Do(v.Engine.InvalidateCache)
	}
}

// Model is one named entry: an atomically swappable current version plus
// the retained source that Reload recompiles from.
type Model struct {
	name string
	cur  atomic.Pointer[Version]

	// compiling counts in-flight background compiles (a reload can overlap
	// the tail of an upload; compileMu serializes the publish order).
	compiling atomic.Int64
	compileMu sync.Mutex

	// mu guards src, lastErr and nextID (control path only).
	mu      sync.Mutex
	src     Source
	lastErr error
	nextID  int64

	// deleted blocks publishes that race a Delete: a compile finishing
	// after its model was removed must release its engine, not resurrect
	// the entry.
	deleted atomic.Bool
}

// State describes a model's lifecycle for listings.
type State string

const (
	// StateReady means a version is published and serving.
	StateReady State = "ready"
	// StateCompiling means no version is live yet and a compile is running.
	StateCompiling State = "compiling"
	// StateFailed means no version is live and the last compile errored.
	StateFailed State = "failed"
)

// Info is one model's listing entry.
type Info struct {
	Name   string `json:"name"`
	State  State  `json:"state"`
	Source string `json:"source"`
	// Version, Variables, CompileUsec and PublishedUnix describe the
	// current version; zero while none is published.
	Version       int64   `json:"version"`
	Variables     int     `json:"variables"`
	CompileUsec   float64 `json:"compile_usec"`
	PublishedUnix int64   `json:"published_unix"`
	// Fingerprint is the version's evprop.Fingerprint: what its answers'
	// bits depend on besides the model bytes and the evidence.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Reloading is true while a background compile runs behind a live
	// version; Error carries the last compile failure, if any.
	Reloading bool   `json:"reloading,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Info snapshots the model's lifecycle state.
func (m *Model) Info() Info {
	info := Info{Name: m.name}
	m.mu.Lock()
	info.Source = m.src.String()
	if m.lastErr != nil {
		info.Error = m.lastErr.Error()
	}
	m.mu.Unlock()
	compiling := m.compiling.Load() > 0
	if v := m.cur.Load(); v != nil {
		info.State = StateReady
		info.Version = v.ID
		info.Variables = len(v.Net.Variables())
		info.CompileUsec = float64(v.CompileTime.Nanoseconds()) / 1e3
		info.PublishedUnix = v.Published.Unix()
		info.Fingerprint = v.Fingerprint
		info.Reloading = compiling
		return info
	}
	if compiling {
		info.State = StateCompiling
	} else {
		info.State = StateFailed
	}
	return info
}

// validName bounds model names to one safe path segment: 1–64 bytes of
// [A-Za-z0-9._-], so a name is usable verbatim in URLs, metric labels and
// file names.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// model returns the named entry.
func (r *Registry) model(name string) (*Model, error) {
	r.mu.RLock()
	m, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return m, nil
}

// Acquire pins the model's current version for one query. The returned
// release function MUST be called when the query finishes — it is what
// lets a swapped-out version drain and free its pooled state. The hot
// path is wait-free: load, increment, re-check.
func (r *Registry) Acquire(name string) (*Version, func(), error) {
	m, err := r.model(name)
	if err != nil {
		return nil, nil, err
	}
	for {
		v := m.cur.Load()
		if v == nil {
			m.mu.Lock()
			lastErr := m.lastErr
			m.mu.Unlock()
			if lastErr != nil && m.compiling.Load() == 0 {
				return nil, nil, fmt.Errorf("%w: %q: %v", ErrNotReady, name, lastErr)
			}
			return nil, nil, fmt.Errorf("%w: %q (compiling)", ErrNotReady, name)
		}
		v.refs.Add(1)
		if m.cur.Load() == v {
			return v, v.done, nil
		}
		// A swap won the race between the load and the increment; this
		// version may already be retiring. Drop the speculative ref and
		// retry against the new current.
		v.release()
	}
}

// Current returns the model's live version without pinning it — for
// stats and listings only; never propagate on it.
func (r *Registry) Current(name string) (*Version, error) {
	m, err := r.model(name)
	if err != nil {
		return nil, err
	}
	v := m.cur.Load()
	if v == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotReady, name)
	}
	return v, nil
}

// CurrentVersions returns each ready model's live version keyed by model
// name, unpinned — for stats and metrics aggregation only; use Acquire
// before propagating.
func (r *Registry) CurrentVersions() map[string]*Version {
	r.mu.RLock()
	models := make([]*Model, 0, len(r.m))
	for _, m := range r.m {
		models = append(models, m)
	}
	r.mu.RUnlock()
	out := make(map[string]*Version, len(models))
	for _, m := range models {
		if v := m.cur.Load(); v != nil {
			out[m.name] = v
		}
	}
	return out
}

// List returns every model's Info, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	models := make([]*Model, 0, len(r.m))
	for _, m := range r.m {
		models = append(models, m)
	}
	r.mu.RUnlock()
	out := make([]Info, len(models))
	for i, m := range models {
		out[i] = m.Info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Load registers (or replaces the source of) the named model and starts a
// background compile of a new version from src. It returns immediately;
// the returned channel yields the compile's outcome exactly once and is
// never closed without a value. Queries keep hitting the previous version
// until the new one publishes.
func (r *Registry) Load(name string, src Source) (<-chan error, error) {
	if !validName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	r.mu.Lock()
	m, ok := r.m[name]
	if !ok {
		m = &Model{name: name}
		r.m[name] = m
	}
	r.mu.Unlock()
	m.mu.Lock()
	m.src = src
	m.mu.Unlock()
	return r.compileAsync(m, src), nil
}

// LoadSync is Load waiting for the compile: the boot path, where
// readiness must mean "every configured model answers queries".
func (r *Registry) LoadSync(name string, src Source) error {
	done, err := r.Load(name, src)
	if err != nil {
		return err
	}
	return <-done
}

// Reload recompiles the named model from its retained source — for file
// sources that re-reads the file, so an edited BIF on disk becomes a new
// version. Background, like Load.
func (r *Registry) Reload(name string) (<-chan error, error) {
	m, err := r.model(name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	src := m.src
	m.mu.Unlock()
	return r.compileAsync(m, src), nil
}

// compileAsync runs parse+compile on its own goroutine and publishes the
// result. The returned channel (capacity 1) receives the outcome.
func (r *Registry) compileAsync(m *Model, src Source) <-chan error {
	m.compiling.Add(1)
	done := make(chan error, 1)
	go func() { done <- r.compileCounted(m, src) }()
	return done
}

// compileCounted is one compile that compileAsync has counted in. It drops
// the count before it returns, hence before its outcome can be sent: whoever
// receives the outcome must not still find the model "compiling".
func (r *Registry) compileCounted(m *Model, src Source) error {
	defer m.compiling.Add(-1)
	return r.compile(m, src)
}

// compile is the background build: load the source, compile the engine,
// publish the version, begin draining the old one. compileMu serializes
// overlapping builds of one model so publishes cannot interleave.
func (r *Registry) compile(m *Model, src Source) error {
	m.compileMu.Lock()
	defer m.compileMu.Unlock()
	start := time.Now()
	net, err := src.Instantiate()
	if err == nil {
		var eng *evprop.Engine
		if eng, err = net.Compile(r.opts); err == nil {
			v := &Version{
				Net:         net,
				Engine:      eng,
				Published:   time.Now(),
				CompileTime: time.Since(start),
				Fingerprint: eng.Fingerprint().String(),
			}
			v.refs.Store(1) // the publisher's reference
			v.done = v.release
			m.mu.Lock()
			m.nextID++
			v.ID = m.nextID
			m.lastErr = nil
			m.mu.Unlock()
			if m.deleted.Load() {
				// Lost a race with Delete: never publish, release now.
				v.release()
				return fmt.Errorf("%w: %q", ErrNotFound, m.name)
			}
			old := m.cur.Swap(v)
			if old != nil {
				// Drop the publisher's ref; the version retires when the
				// last in-flight query releases it.
				old.release()
			}
			return nil
		}
	}
	m.mu.Lock()
	m.lastErr = err
	m.mu.Unlock()
	return err
}

// Delete removes the model. The current version drains and releases once
// its in-flight queries finish; new Acquires fail with ErrNotFound
// immediately.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	m, ok := r.m[name]
	if ok {
		delete(r.m, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	m.deleted.Store(true)
	if old := m.cur.Swap(nil); old != nil {
		old.release()
	}
	return nil
}

// Close drains and releases every model, for process shutdown.
func (r *Registry) Close() {
	r.mu.Lock()
	models := make([]*Model, 0, len(r.m))
	for _, m := range r.m {
		models = append(models, m)
	}
	r.m = map[string]*Model{}
	r.mu.Unlock()
	for _, m := range models {
		m.deleted.Store(true)
		if old := m.cur.Swap(nil); old != nil {
			old.release()
		}
	}
}
