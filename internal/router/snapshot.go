package router

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Warm-restart snapshots: the first child to cold-build a partition writes
// it — frozen columns plus the integrated prefix-cube grid — to one
// colstore snapshot file per (shard, spec). Every later spawn of that slot
// mmaps the file read-only and is ready in O(columns): no 50M-row
// regeneration, no re-partition, no re-encode, no cube counting pass.
//
// Correctness is fenced twice. The colstore layer rejects structural damage
// (bad magic, version skew, truncation, any checksum mismatch — a torn
// concurrent write loses the CRC race and reads as corrupt). On top of
// that, the fence map pins the serving contract: dataset, seed, rows,
// shard/of, and encode flag must all equal the child's
// spec, and the row layout must be the one shard.Partition produces now,
// so a snapshot left over from a different run shape or an older layout
// is refused even though the file itself is intact. Any refusal at either
// layer falls back to the deterministic rebuild path — the pre-snapshot
// behavior — and the rebuild then rewrites the snapshot for the next
// restart.

// snapDimsSection holds the shard's cube dimensions as JSON — global
// domains, so a warm-started child never needs the full table to derive
// them (the listings dataset computes domains from the unpartitioned
// table, which is exactly the O(rows) work warm start exists to skip).
const snapDimsSection = "dims"

// snapPrefixSection holds the shard's integrated prefix-cube grid.
const snapPrefixSection = "prefix"

// childFence is the warm-start contract a snapshot must match before a
// child trusts it: every spec field that changes what the partition
// contains, how its rows are laid out, or how it is encoded.
func childFence(spec ChildSpec) map[string]string {
	return map[string]string{
		"dataset": spec.Dataset,
		"rows":    strconv.Itoa(spec.Rows),
		"seed":    strconv.FormatInt(spec.Seed, 10),
		"shard":   strconv.Itoa(spec.Shard),
		"of":      strconv.Itoa(spec.Of),
		"encode":  strconv.FormatBool(spec.Encode),
		"layout":  shard.Layout,
	}
}

// snapshotPath names a spec's snapshot file. The fence fields ride the
// name too, so distinct run shapes sharing one directory never collide —
// but the name is advisory; trust comes from the fence check inside.
func snapshotPath(dir string, spec ChildSpec) string {
	enc := 0
	if spec.Encode {
		enc = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-r%d-seed%d-s%dof%d-e%d.snap",
		spec.Dataset, spec.Rows, spec.Seed, spec.Shard, spec.Of, enc))
}

// fenceMatches reports whether a snapshot's stored fence equals the spec's.
func fenceMatches(got, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// warmState is a successfully fenced snapshot, ready to serve: the mapped
// table and the prefix cube reconstructed over the mapped grid. The
// Snapshot must stay open for the child's lifetime.
type warmState struct {
	snap   *colstore.Snapshot
	table  *storage.Table
	dims   []datacube.Dim
	prefix *datacube.PrefixCube
}

// tryWarmStart opens, verifies, and reconstructs the spec's snapshot. Every
// failure is returned for the caller's fallback ladder; only a fully
// verified snapshot produces a warmState.
func tryWarmStart(spec ChildSpec) (*warmState, error) {
	path := snapshotPath(spec.SnapshotDir, spec)
	snap, err := colstore.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			snap.Close()
		}
	}()
	if !fenceMatches(snap.Fence(), childFence(spec)) {
		return nil, fmt.Errorf("router child: snapshot %s: fence mismatch (stale run shape)", path)
	}
	dimsJSON, have := snap.SectionJSON(snapDimsSection)
	if !have {
		return nil, fmt.Errorf("router child: snapshot %s: no %q section", path, snapDimsSection)
	}
	var dims []datacube.Dim
	if err := json.Unmarshal(dimsJSON, &dims); err != nil {
		return nil, fmt.Errorf("router child: snapshot %s: dims: %w", path, err)
	}
	sums, have := snap.SectionInt64(snapPrefixSection)
	if !have {
		return nil, fmt.Errorf("router child: snapshot %s: no %q section", path, snapPrefixSection)
	}
	prefix, err := datacube.NewPrefixFromSums(dims, snap.Rows(), sums)
	if err != nil {
		return nil, fmt.Errorf("router child: snapshot %s: %w", path, err)
	}
	ok = true
	return &warmState{snap: snap, table: snap.Table(), dims: dims, prefix: prefix}, nil
}

// writeChildSnapshot persists a cold build for the slot's next restart:
// the (frozen or raw) partition columns, the cube dimensions, and the
// integrated prefix grid, atomically renamed into place. Concurrent
// replicas of the same shard write identical bytes through unique temp
// files, so the race is harmless.
func writeChildSnapshot(spec ChildSpec, part *storage.Table, dims []datacube.Dim, prefix *datacube.PrefixCube) error {
	dimsJSON, err := json.Marshal(dims)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(spec.SnapshotDir, 0o755); err != nil {
		return err
	}
	return colstore.WriteSnapshot(snapshotPath(spec.SnapshotDir, spec), part, childFence(spec),
		[]colstore.SnapshotSection{
			{Name: snapDimsSection, JSON: dimsJSON},
			{Name: snapPrefixSection, Int64s: prefix.Sums()},
		})
}
