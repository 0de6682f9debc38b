package service

import (
	"bufio"
	"bytes"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// The fleet metrics view: GET /v1/cluster/metrics scrapes every peer's
// existing Prometheus endpoint, merges the expositions family by
// family, and injects a node="<name>" label into every sample — one
// dashboard covers the whole ring without per-node scrape configs. A
// peer that cannot be scraped is reported down (statsimd_fleet_node_up
// 0) and simply contributes no samples; the view degrades, it never
// fails.

// promFamily is one parsed exposition family: its preamble and the raw
// sample lines that followed it, in input order. Histogram and summary
// child series (_bucket/_sum/_count) attach to their base family
// because they follow its # TYPE line sequentially.
type promFamily struct {
	name    string
	help    string // raw "# HELP ..." line
	typ     string // raw "# TYPE ..." line
	samples []string
}

// parsePromFamilies splits an exposition into families. Sample lines
// before any preamble (or malformed lines) attach to a synthetic
// unnamed family so nothing is silently dropped.
func parsePromFamilies(text []byte) []*promFamily {
	var fams []*promFamily
	byName := make(map[string]*promFamily)
	var cur *promFamily
	get := func(name string) *promFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &promFamily{name: name}
		byName[name] = f
		fams = append(fams, f)
		return f
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# HELP "):]
			name := rest
			if i := strings.IndexByte(rest, ' '); i >= 0 {
				name = rest[:i]
			}
			cur = get(name)
			if strings.HasPrefix(line, "# HELP ") {
				cur.help = line
			} else {
				cur.typ = line
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments carry no series
		}
		if cur == nil || !strings.HasPrefix(line, cur.name) {
			// A new family's sample without (or past) a preamble, or a
			// histogram child: resolve its base name. Children like
			// foo_bucket still start with "foo", so the prefix check above
			// keeps them attached to the current family.
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			cur = get(name)
		}
		cur.samples = append(cur.samples, line)
	}
	return fams
}

// injectNodeLabel returns the sample line with node="name" spliced in
// as the first label. The first '{' in a sample line is always the
// label-block opener (metric names cannot contain one). A label named
// node already on the series (the point-cost families carry the
// executing node) is renamed exported_node, per the federation
// convention — a duplicated label name is invalid exposition.
func injectNodeLabel(line, node string) string {
	esc := promEscapeLabel(node)
	if i := strings.IndexByte(line, '{'); i >= 0 {
		return line[:i+1] + `node="` + esc + `",` + renameNodeLabel(line[i+1:])
	}
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i] + `{node="` + esc + `"}` + line[i:]
	}
	return line
}

// renameNodeLabel rewrites a pre-existing node="..." label in a label
// block to exported_node="...". Label values escape '"' as '\"', so
// the bare sequence `node="` cannot occur inside a well-formed value;
// matching it at the block start or after a comma is exact.
func renameNodeLabel(labels string) string {
	if strings.HasPrefix(labels, `node="`) {
		return "exported_" + labels
	}
	if i := strings.Index(labels, `,node="`); i >= 0 {
		return labels[:i+1] + "exported_" + labels[i+1:]
	}
	return labels
}

// fleetSection is one node's scraped exposition.
type fleetSection struct {
	node string
	body []byte
	up   bool
}

// writeFleetMetrics merges the sections into one exposition: the up
// gauge first, then every family that appears anywhere — preamble once
// (first non-empty wins), samples grouped per node in section order
// with the node label injected. Section order (self first, peers
// sorted) and the per-family ordering make the merged scrape
// deterministic for a fixed fleet state.
func writeFleetMetrics(w *bytes.Buffer, sections []fleetSection) {
	w.WriteString("# HELP statsimd_fleet_node_up Whether the node's metrics endpoint answered this fleet scrape.\n")
	w.WriteString("# TYPE statsimd_fleet_node_up gauge\n")
	for _, s := range sections {
		v := "0"
		if s.up {
			v = "1"
		}
		w.WriteString(`statsimd_fleet_node_up{node="` + promEscapeLabel(s.node) + `"} ` + v + "\n")
	}

	type nodeFam struct {
		node string
		fam  *promFamily
	}
	var order []string
	merged := make(map[string][]nodeFam)
	for _, s := range sections {
		if !s.up {
			continue
		}
		for _, f := range parsePromFamilies(s.body) {
			if f.name == "" {
				continue
			}
			if _, ok := merged[f.name]; !ok {
				order = append(order, f.name)
			}
			merged[f.name] = append(merged[f.name], nodeFam{node: s.node, fam: f})
		}
	}
	for _, name := range order {
		parts := merged[name]
		for _, p := range parts {
			if p.fam.help != "" {
				w.WriteString(p.fam.help + "\n")
				break
			}
		}
		for _, p := range parts {
			if p.fam.typ != "" {
				w.WriteString(p.fam.typ + "\n")
				break
			}
		}
		for _, p := range parts {
			for _, line := range p.fam.samples {
				w.WriteString(injectNodeLabel(line, p.node) + "\n")
			}
		}
	}
}

// handleClusterMetrics serves the merged fleet exposition. Peers are
// scraped concurrently under the coordinator's RPC timeout; this node's
// own exposition renders locally, so a single-node "fleet" still works.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSONError(w, errNotClustered)
		return
	}
	status := s.cluster.Status()
	var self bytes.Buffer
	_ = s.renderPrometheus(&self)
	sections := make([]fleetSection, 1+len(status.Peers))
	sections[0] = fleetSection{node: status.Self, body: self.Bytes(), up: true}
	peers := make([]string, len(status.Peers))
	for i, p := range status.Peers {
		peers[i] = p.Name
	}
	sort.Strings(peers)
	var wg sync.WaitGroup
	for i, name := range peers {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			body, err := s.cluster.PeerMetrics(r.Context(), name)
			sections[1+i] = fleetSection{node: name, body: body, up: err == nil}
			if err != nil {
				s.log.Debug("fleet metrics scrape failed", "peer", name, "err", err.Error())
			}
		}(i, name)
	}
	wg.Wait()
	var out bytes.Buffer
	writeFleetMetrics(&out, sections)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(out.Bytes())
}
