package service

import (
	"sort"

	"streamcover/client"
	"streamcover/internal/obs/trace"
)

// Trace wire types, aliased from the public client package like the rest
// of the API surface.
type (
	RecordedTrace  = client.RecordedTrace
	TraceSpan      = client.TraceSpan
	TracesResponse = client.TracesResponse
	DebugBundle    = client.DebugBundle
)

// wireTrace converts one flight-recorder trace to its wire form: the flat
// end-ordered span list becomes a tree (children nested under parents,
// ordered by start time), ready for JSON.
func wireTrace(rec trace.Recorded) RecordedTrace {
	nodes := make([]TraceSpan, len(rec.Spans))
	index := make(map[trace.SpanID]int, len(rec.Spans))
	for i, s := range rec.Spans {
		nodes[i] = TraceSpan{
			SpanID:          s.SpanID.String(),
			Name:            s.Name,
			Start:           s.Start,
			DurationSeconds: s.Duration().Seconds(),
			Attrs:           attrMap(s.Attrs),
		}
		if !s.Parent.IsZero() {
			nodes[i].Parent = s.Parent.String()
		}
		index[s.SpanID] = i
	}
	// Group children by parent. Spans whose parent has no record here —
	// local roots, or the server root of a client-propagated trace — are
	// the tree roots.
	children := make(map[int][]int)
	var roots []int
	for i, s := range rec.Spans {
		if p, ok := index[s.Parent]; ok && !s.Parent.IsZero() {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return nodes[idx[a]].Start.Before(nodes[idx[b]].Start) })
	}
	var build func(i int) TraceSpan
	build = func(i int) TraceSpan {
		n := nodes[i]
		kids := children[i]
		byStart(kids)
		for _, k := range kids {
			n.Children = append(n.Children, build(k))
		}
		return n
	}
	byStart(roots)
	out := RecordedTrace{TraceID: rec.TraceID.String(), DroppedSpans: rec.Dropped}
	for _, r := range roots {
		out.Spans = append(out.Spans, build(r))
	}
	return out
}

func wireTraces(recs []trace.Recorded) []RecordedTrace {
	out := make([]RecordedTrace, len(recs))
	for i, r := range recs {
		out[i] = wireTrace(r)
	}
	return out
}

// attrMap flattens span attributes for JSON. Later values win on duplicate
// keys (a span that sets the same attribute twice meant the update).
func attrMap(attrs []trace.Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}
