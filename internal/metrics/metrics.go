// Package metrics is a zero-dependency (standard library plus
// internal/stats) instrumentation registry for the simulated control
// plane: latency histograms, plus pull-style probes over the resources
// and scalar statistics every layer already accounts for. Series are
// keyed by (layer, resource, metric) so a snapshot can answer the paper's
// central question — *which* layer of the management control plane
// saturates first — directly, instead of inferring it from end-to-end
// latency breakdowns.
//
// Two properties are load-bearing:
//
//   - The disabled path is allocation-free: every constructor on a nil
//     *Registry returns a nil instrument, and every instrument method is
//     a nil-receiver no-op, so un-instrumented runs pay one pointer
//     comparison per call site and nothing else.
//   - Metrics observe, they never schedule: probes are only read at
//     Snapshot time and push instruments only record values the model
//     already computed, so enabling metrics cannot perturb virtual-time
//     results.
package metrics

import (
	"math"
	"sort"

	"cloudmcp/internal/stats"
)

// Histogram collects a latency-style distribution with exact
// percentiles (backed by stats.Sample, matching the repository's
// exact-storage convention).
type Histogram struct {
	key    Key
	sample stats.Sample
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sample.Add(v)
}

// Key identifies one series: the model layer that owns it, the resource
// within the layer, and the metric name.
type Key struct {
	Layer    string
	Resource string
	Metric   string
}

// ResourceSample is a probe's snapshot of one contended resource: the
// utilization/queueing statistics the bottleneck report ranks. Probes
// adapt sim.ResourceStats, bw.EngineStats, and friends to this form.
type ResourceSample struct {
	Capacity     int     // units of concurrency (0 when not applicable)
	Utilization  float64 // mean fraction of capacity in use
	MeanQueueLen float64 // time-averaged waiter count
	MaxQueueLen  int
	Grants       int64   // completed acquisitions / transfers
	MeanWaitS    float64 // mean seconds queued per grant
	TotalWaitS   float64 // total seconds spent queued (queue-wait share basis)
}

type resourceProbe struct {
	layer, resource string
	fn              func() ResourceSample
}

type scalarProbe struct {
	key Key
	fn  func() float64
}

// Registry holds every registered series. The zero value of *Registry
// (nil) is a valid disabled registry: all constructors return nil
// instruments and Snapshot returns nil. Registries are not safe for
// concurrent use; like the simulation kernel they serve, all access is
// single-threaded per run.
type Registry struct {
	hists     []*Histogram
	resources []resourceProbe
	scalars   []scalarProbe

	index map[indexKey]int
}

type indexKey struct {
	kind string // "hist", "resource" or "scalar"
	key  Key
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{index: make(map[indexKey]int)} }

func (r *Registry) lookup(kind string, key Key) (int, bool) {
	i, ok := r.index[indexKey{kind, key}]
	return i, ok
}

func (r *Registry) remember(kind string, key Key, i int) {
	r.index[indexKey{kind, key}] = i
}

// Histogram returns the histogram for the key, creating it on first use.
func (r *Registry) Histogram(layer, resource, metric string) *Histogram {
	if r == nil {
		return nil
	}
	key := Key{layer, resource, metric}
	if i, ok := r.lookup("hist", key); ok {
		return r.hists[i]
	}
	h := &Histogram{key: key}
	r.remember("hist", key, len(r.hists))
	r.hists = append(r.hists, h)
	return h
}

// ResourceFunc registers a pull probe for one contended resource; fn is
// called at Snapshot time only. Registering the same (layer, resource)
// twice replaces the earlier probe. No-op on a nil registry.
func (r *Registry) ResourceFunc(layer, resource string, fn func() ResourceSample) {
	if r == nil {
		return
	}
	key := Key{Layer: layer, Resource: resource}
	if i, ok := r.lookup("resource", key); ok {
		r.resources[i].fn = fn
		return
	}
	r.remember("resource", key, len(r.resources))
	r.resources = append(r.resources, resourceProbe{layer: layer, resource: resource, fn: fn})
}

// ScalarFunc registers a pull probe for one scalar statistic the model
// already accumulates (a count, a mean); fn is called at Snapshot time
// only. Re-registering a key replaces the probe. No-op on a nil registry.
func (r *Registry) ScalarFunc(layer, resource, metric string, fn func() float64) {
	if r == nil {
		return
	}
	key := Key{layer, resource, metric}
	if i, ok := r.lookup("scalar", key); ok {
		r.scalars[i].fn = fn
		return
	}
	r.remember("scalar", key, len(r.scalars))
	r.scalars = append(r.scalars, scalarProbe{key: key, fn: fn})
}

// Snapshot evaluates every probe and instrument at virtual time nowS and
// returns an immutable snapshot. Returns nil on a nil registry.
func (r *Registry) Snapshot(nowS float64) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{AtS: nowS}
	for _, p := range r.resources {
		sample := p.fn()
		s.Resources = append(s.Resources, ResourceRow{
			Layer:          p.layer,
			Resource:       p.resource,
			ResourceSample: sample,
		})
	}
	for _, p := range r.scalars {
		s.Scalars = append(s.Scalars, ScalarRow{Layer: p.key.Layer, Resource: p.key.Resource, Metric: p.key.Metric, Value: p.fn()})
	}
	for _, h := range r.hists {
		row := TimingRow{Layer: h.key.Layer, Resource: h.key.Resource, Metric: h.key.Metric, Count: h.sample.Count()}
		if row.Count > 0 {
			row.MeanS = h.sample.Mean()
			row.P50S = h.sample.Percentile(50)
			row.P95S = h.sample.Percentile(95)
			row.MaxS = h.sample.Max()
		} else {
			// Zero-count distributions have no defined percentiles; NaN
			// marks them so renderers print "n/a" instead of a fake 0.
			row.MeanS, row.P50S, row.P95S, row.MaxS = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		}
		s.Timings = append(s.Timings, row)
	}
	// Sort every section by key so snapshot artifacts are identical no
	// matter what order the layers happened to register in.
	sort.Slice(s.Resources, func(i, j int) bool {
		if s.Resources[i].Layer != s.Resources[j].Layer {
			return s.Resources[i].Layer < s.Resources[j].Layer
		}
		return s.Resources[i].Resource < s.Resources[j].Resource
	})
	scalarKey := func(r ScalarRow) Key { return Key{r.Layer, r.Resource, r.Metric} }
	sort.Slice(s.Scalars, func(i, j int) bool { return keyLess(scalarKey(s.Scalars[i]), scalarKey(s.Scalars[j])) })
	sort.Slice(s.Timings, func(i, j int) bool {
		return keyLess(Key{s.Timings[i].Layer, s.Timings[i].Resource, s.Timings[i].Metric},
			Key{s.Timings[j].Layer, s.Timings[j].Resource, s.Timings[j].Metric})
	})
	return s
}

func keyLess(a, b Key) bool {
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	if a.Resource != b.Resource {
		return a.Resource < b.Resource
	}
	return a.Metric < b.Metric
}
