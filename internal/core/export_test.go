package core

// Slots returns the number of slots the table holds, tombstoned ones
// included.
func (ft *FactTable) Slots() int { return ft.n }
