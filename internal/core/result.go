package core

import "fmt"

// Row is one line of a query result, as Result.Rows builds it.
type Row struct {
	// TimeKey is the rendered time bucket ("2001", "Q2/2002", ...).
	TimeKey string
	// Groups holds the display names of the grouping members, aligned
	// with Query.GroupBy.
	Groups []string
	// GroupIDs holds the member version IDs behind Groups.
	GroupIDs []MVID
	// Values holds one aggregate per selected measure; NaN marks a value
	// whose mapping is unknown.
	Values []float64
	// CFs holds the combined confidence factor per value.
	CFs []Confidence
	// N counts the emissions folded into the row: one per mapped tuple
	// and per combination of its ancestors at the grouping levels that
	// lands in the row. A tuple whose ancestors include two member
	// versions sharing a display name emits into the row twice — its
	// value is folded twice and N counts 2. In a version mode the mapped
	// tuples are the mode's: source facts presented on one coordinate
	// were merged into one tuple before the scan.
	N int
}

// Result is a query result: a header plus its cells, sorted by time
// bucket, then group names. Definition 12 makes an answer a set of
// cells, each holding one ⊕ value and one ⊗cf factor per selected
// measure, and a Result stores exactly that, as columns that hold no
// pointer — per cell its time bucket, the member it names on each axis
// and its emission count; per cell and measure its value and its
// confidence factor — beside small tables of the bucket keys and, per
// axis, of the display names and IDs of the members the cells name.
// Len and the accessors read cell i where it lies; Rows builds row
// structs on demand. Every cell holds one group per GroupNames entry and
// one value and one factor per MeasureNames entry.
//
// A Result is frozen once built: the result cache shares it between
// readers.
type Result struct {
	// MeasureNames are the selected measures in output order.
	MeasureNames []string
	// GroupNames are the grouping level names in output order.
	GroupNames []string
	// Mode echoes the query's temporal mode of presentation.
	Mode Mode
	// Dropped counts source facts not presentable in the mode.
	Dropped int

	// bucket, member and n are windows of one int32 block: per cell, the
	// index in keys of its time bucket; per cell and axis, the index in
	// names[axis] and ids[axis] of the member it names; per cell, its
	// emission count. values and cfs hold per cell and measure.
	bucket, member, n []int32
	values            []float64
	cfs               []Confidence
	keys              []string
	names             [][]string
	ids               [][]MVID
}

// alloc sizes the result's columns for cells cells, exactly.
func (r *Result) alloc(cells int) {
	na, nq := len(r.GroupNames), len(r.MeasureNames)
	ints := make([]int32, cells*(na+2))
	r.bucket = ints[:cells:cells]
	r.member = ints[cells : cells*(na+1) : cells*(na+1)]
	r.n = ints[cells*(na+1):]
	r.values = make([]float64, cells*nq)
	r.cfs = make([]Confidence, cells*nq)
}

// Len returns the number of cells.
func (r *Result) Len() int { return len(r.n) }

// TimeKey returns the rendered time bucket of cell i.
func (r *Result) TimeKey(i int) string { return r.keys[r.bucket[i]] }

// Group returns the display name of the member cell i names on the
// given axis, an index of GroupNames.
func (r *Result) Group(i, axis int) string {
	return r.names[axis][r.member[i*len(r.GroupNames)+axis]]
}

// GroupID returns the member version ID behind Group(i, axis).
func (r *Result) GroupID(i, axis int) MVID {
	return r.ids[axis][r.member[i*len(r.GroupNames)+axis]]
}

// Values returns the aggregates of cell i, one per selected measure.
// The slice is the result's own: it must not be written.
func (r *Result) Values(i int) []float64 {
	nq := len(r.MeasureNames)
	return r.values[i*nq : (i+1)*nq : (i+1)*nq]
}

// CFs returns the combined confidence factors of cell i, aligned with
// Values(i). The slice is the result's own: it must not be written.
func (r *Result) CFs(i int) []Confidence {
	nq := len(r.MeasureNames)
	return r.cfs[i*nq : (i+1)*nq : (i+1)*nq]
}

// Rows builds the cells as rows, in order. Each call builds new rows
// that share nothing with the result or with each other.
func (r *Result) Rows() []*Row {
	n, na, nq := r.Len(), len(r.GroupNames), len(r.MeasureNames)
	rows := make([]Row, n)
	out := make([]*Row, n)
	groups := make([]string, n*na)
	groupIDs := make([]MVID, n*na)
	values := append(make([]float64, 0, n*nq), r.values...)
	cfs := append(make([]Confidence, 0, n*nq), r.cfs...)
	for i := range rows {
		row := &rows[i]
		row.TimeKey = r.TimeKey(i)
		row.Groups = groups[i*na : (i+1)*na : (i+1)*na]
		row.GroupIDs = groupIDs[i*na : (i+1)*na : (i+1)*na]
		for ai := range na {
			row.Groups[ai], row.GroupIDs[ai] = r.Group(i, ai), r.GroupID(i, ai)
		}
		row.Values = values[i*nq : (i+1)*nq : (i+1)*nq]
		row.CFs = cfs[i*nq : (i+1)*nq : (i+1)*nq]
		row.N = int(r.n[i])
		out[i] = row
	}
	return out
}

// SetRows replaces the result's cells with the given rows, in order:
// the way to build a result that was not scanned. Each row must hold
// one group per GroupNames entry and one value and one confidence factor
// per MeasureNames entry; its GroupIDs hold one ID per group, or none.
func (r *Result) SetRows(rows []*Row) {
	na, nq := len(r.GroupNames), len(r.MeasureNames)
	r.alloc(len(rows))
	r.keys, r.names, r.ids = nil, make([][]string, na), make([][]MVID, na)
	type member struct {
		name string
		id   MVID
	}
	keyAt := map[string]int32{}
	memberAt := make([]map[member]int32, na)
	for ai := range memberAt {
		memberAt[ai] = map[member]int32{}
	}
	for i, row := range rows {
		if len(row.Groups) != na || len(row.Values) != nq || len(row.CFs) != nq || (row.GroupIDs != nil && len(row.GroupIDs) != na) {
			panic(fmt.Sprintf("core: row %d has %d groups, %d IDs, %d values and %d factors; the result has %d groups and %d measures",
				i, len(row.Groups), len(row.GroupIDs), len(row.Values), len(row.CFs), na, nq))
		}
		k, ok := keyAt[row.TimeKey]
		if !ok {
			k = int32(len(r.keys))
			keyAt[row.TimeKey] = k
			r.keys = append(r.keys, row.TimeKey)
		}
		r.bucket[i] = k
		for ai, name := range row.Groups {
			m := member{name: name}
			if row.GroupIDs != nil {
				m.id = row.GroupIDs[ai]
			}
			x, ok := memberAt[ai][m]
			if !ok {
				x = int32(len(r.names[ai]))
				memberAt[ai][m] = x
				r.names[ai] = append(r.names[ai], m.name)
				r.ids[ai] = append(r.ids[ai], m.id)
			}
			r.member[i*na+ai] = x
		}
		copy(r.values[i*nq:], row.Values)
		copy(r.cfs[i*nq:], row.CFs)
		r.n[i] = int32(row.N)
	}
}
