package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// cmdTrace fetches an assembled span tree from a daemon's
// GET /v1/debug/trace/{id} and pretty-prints it — the operator's view
// of where a clustered sweep's time went, node by node, cohort by
// cohort. The ID is the request's trace ID: set X-Request-Id on the
// original request (or read the id field of its response envelope) and
// pass the same value here.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "daemon base URL")
	asJSON := fs.Bool("json", false, "print the raw tree JSON instead of the rendered view")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: exactly one trace ID is required")
	}
	id := fs.Arg(0)

	resp, err := http.Get(strings.TrimRight(*addr, "/") + "/v1/debug/trace/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var msg struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(body, &msg)
		if msg.Error != "" {
			return fmt.Errorf("trace: %s", msg.Error)
		}
		return fmt.Errorf("trace: daemon answered status %d", resp.StatusCode)
	}
	if *asJSON {
		fmt.Println(strings.TrimRight(string(body), "\n"))
		return nil
	}
	var tree obs.TraceTree
	if err := json.Unmarshal(body, &tree); err != nil {
		return fmt.Errorf("trace: decoding tree: %w", err)
	}
	printTraceTree(&tree)
	return nil
}

// printTraceTree renders the tree indented, one span per line:
// duration, name, node, a stage's instruction count, then the
// attributes sorted by key. Multiple
// roots (a partial tree from a late peer slice) render sequentially.
func printTraceTree(tree *obs.TraceTree) {
	fmt.Printf("trace %s: %d spans across %d node(s)", tree.TraceID, tree.Spans, len(tree.Nodes))
	if len(tree.Nodes) > 0 {
		fmt.Printf(" [%s]", strings.Join(tree.Nodes, ", "))
	}
	fmt.Println()
	if len(tree.Roots) > 1 {
		fmt.Printf("note: %d roots — some parent spans were not retained (partial tree)\n", len(tree.Roots))
	}
	for _, root := range tree.Roots {
		printTraceNode(root, 0)
	}
}

func printTraceNode(n *obs.TraceNode, depth int) {
	d := time.Duration(n.DurationS * float64(time.Second)).Round(time.Microsecond)
	line := fmt.Sprintf("%s%-9s %s", strings.Repeat("  ", depth), d, n.Name)
	if n.Node != "" {
		line += "  @" + n.Node
	}
	if n.Instructions > 0 {
		line += fmt.Sprintf("  insts=%d", n.Instructions)
	}
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + n.Attrs[k]
		}
		line += "  {" + strings.Join(parts, " ") + "}"
	}
	fmt.Println(line)
	for _, c := range n.Children {
		printTraceNode(c, depth+1)
	}
}
