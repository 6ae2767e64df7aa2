package bx

import (
	"medshare/internal/reldb"
)

// Overlap analysis implements step 6 of the paper's Fig. 5 workflow: after
// an incoming update on one share is put into the local source, the peer
// must decide which of its *other* shares over the same source need to be
// regenerated and re-propagated.
//
// Share B is affected by an update that arrived through share A when the
// source columns written by A's put intersect the source columns read by
// B.Get (both computed symbolically from the lens specs, not from data, so
// the check is cheap and conservative).

// Overlaps reports whether an update through lens a that changed the given
// view columns (nil means "unknown, assume all") can affect the view of
// lens b over the same source schema.
func Overlaps(src reldb.Schema, a Lens, changedViewCols []string, b Lens) (bool, error) {
	written, err := a.SourceColumnsWritten(src, changedViewCols)
	if err != nil {
		return false, err
	}
	read, err := b.SourceColumnsRead(src)
	if err != nil {
		return false, err
	}
	return intersects(written, read), nil
}
