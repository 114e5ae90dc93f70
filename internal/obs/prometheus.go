package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// series is one rendered sample: a metric name (with labels) and its value.
// sub and seq order samples inside one family: histograms group their
// buckets per label set (sub) in ascending-`le` order (seq), which plain
// lexical name sorting would scramble ("+Inf" sorts before "0.001").
type series struct {
	family string // base name grouping HELP/TYPE lines
	typ    string // counter | gauge | histogram
	sub    string // intra-family group (histogram label set), "" otherwise
	seq    int    // intra-group order (bucket index), 0 otherwise
	name   string
	value  string
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (v0.0.4): counters and gauges one sample each, histograms as
// cumulative `_seconds_bucket{le=...}` series with `_seconds_sum` and
// `_seconds_count`, plus a `_seconds_max` gauge. Output is sorted by family,
// label set and bucket order, so the rendering is deterministic and
// diff-friendly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	rows := make([]series, 0,
		len(r.counters)+len(r.gauges)+(len(DefBuckets)+4)*len(r.histograms))
	for name, c := range r.counters {
		rows = append(rows, series{
			family: familyOf(name), typ: "counter",
			name: name, value: fmt.Sprintf("%d", c.Value()),
		})
	}
	for name, g := range r.gauges {
		rows = append(rows, series{
			family: familyOf(name), typ: "gauge",
			name: name, value: fmt.Sprintf("%d", g.Value()),
		})
	}
	for name, h := range r.histograms {
		base, labels := splitLabels(name)
		fam := base + "_seconds"
		cum := h.Cumulative()
		for i, c := range cum {
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			rows = append(rows, series{family: fam, typ: "histogram",
				sub: labels, seq: i + 1,
				name:  fam + "_bucket" + mergeLabel(labels, "le", le),
				value: fmt.Sprintf("%d", c)})
		}
		rows = append(rows,
			series{family: fam, typ: "histogram",
				sub: labels, seq: len(cum) + 1,
				name:  fam + "_sum" + labels,
				value: formatSeconds(h.sumNs.Load())},
			series{family: fam, typ: "histogram",
				sub: labels, seq: len(cum) + 2,
				name:  fam + "_count" + labels,
				value: fmt.Sprintf("%d", h.count.Load())},
			series{family: fam + "_max", typ: "gauge",
				name:  fam + "_max" + labels,
				value: formatSeconds(h.maxNs.Load())},
		)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].family != rows[j].family {
			return rows[i].family < rows[j].family
		}
		if rows[i].sub != rows[j].sub {
			return rows[i].sub < rows[j].sub
		}
		if rows[i].seq != rows[j].seq {
			return rows[i].seq < rows[j].seq
		}
		return rows[i].name < rows[j].name
	})
	prev := ""
	for _, s := range rows {
		if s.family != prev {
			prev = s.family
			// Histogram families registered as "<base>_seconds" share the
			// "<base>_seconds_max" gauge's help text.
			h := help[s.family]
			if h == "" {
				h = help[strings.TrimSuffix(s.family, "_max")]
			}
			if h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.family, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.family, s.typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.value); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler serves the registry as `GET /metrics` Prometheus text.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Snapshot returns every sample as a flat name -> value map (histograms
// expanded into `_seconds_sum`/`_seconds_count`/`_seconds_max`, without
// buckets). It backs the expvar export and keeps tests independent of the
// text rendering.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+3*len(r.histograms))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, h := range r.histograms {
		base, labels := splitLabels(name)
		out[base+"_seconds_sum"+labels] = float64(h.sumNs.Load()) / 1e9
		out[base+"_seconds_count"+labels] = float64(h.count.Load())
		out[base+"_seconds_max"+labels] = float64(h.maxNs.Load()) / 1e9
	}
	return out
}

// mergeLabel appends key="value" into an existing `{...}` label suffix (or
// starts one), used to add `le` to histogram bucket series.
func mergeLabel(labels, key, value string) string {
	if labels == "" {
		return "{" + key + `="` + value + `"}`
	}
	return labels[:len(labels)-1] + "," + key + `="` + value + `"}`
}

// splitLabels separates `name{labels}` into its base name and the `{labels}`
// suffix (empty when unlabeled).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// formatSeconds renders nanoseconds as decimal seconds without float noise.
func formatSeconds(ns int64) string {
	return fmt.Sprintf("%d.%09d", ns/1e9, ns%1e9)
}
