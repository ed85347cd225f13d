package schemaio

import (
	"errors"

	"mvolap/internal/core"
)

// EncodeMappedTable used to serialize one materialized mode. No mode is
// materialized any more (core.Schema.ExportWarmModes returns nil), so
// nothing reaches it, and it encodes nothing.
//
// Deprecated: only the benchmark module's serial replay compiles
// against it; it is removed with that replay (ROADMAP item 2).
func EncodeMappedTable(*core.MappedTableExport) ([]byte, error) {
	return nil, errors.New("schemaio: no mode is materialized, so none is encoded")
}
