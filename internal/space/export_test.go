package space

// LinkedAccountSize reports what the meter's Figure 8 account tracks: ribs
// and shadowed chains, continuation frames, and binding pairs. All three are
// zero until the first Linked call builds the account.
func (d *DeltaMeter) LinkedAccountSize() (ribs, frames, pairs int) {
	if d.linked == nil {
		return 0, 0, 0
	}
	return d.linked.bindings.Tracked(), d.linked.frames.Tracked(), d.linked.bindings.Len()
}
