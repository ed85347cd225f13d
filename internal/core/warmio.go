package core

// MappedTableExport used to be the serializable image of one
// materialized mode. No mode is materialized any more, so it carries
// nothing.
//
// Deprecated: only the benchmark module's serial replay names it; it
// is removed with that replay (ROADMAP item 2).
type MappedTableExport struct{}

// ExportWarmModes used to export the materialized modes of the
// schema's mode cache. A mode has no materialized state any more, so it
// returns nil.
//
// Deprecated: only the benchmark module's serial replay calls it; it is
// removed with that replay (ROADMAP item 2).
func (s *Schema) ExportWarmModes() []*MappedTableExport { return nil }
