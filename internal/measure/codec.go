package measure

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/timing"
)

// Binary codecs for the two records the disk cache persists: the full
// component record (metrics, accounting details, the optimized
// netlist's hash and its timing summary) and the signature record of
// one synthesized design point. Explicit field-by-field encoders over
// internal/codec's primitives — what encoding/gob did by reflection,
// without the reflection. Each payload opens with its own structure
// version byte so the layout can evolve under one cache schema: an
// entry of another version decodes as codec.ErrCorrupt and is
// recomputed.

const (
	// recordVersion 2 dropped the search counters version 1 stored:
	// they described whichever run wrote the entry, not the result.
	// Version 3 (with sigVersion 2) replaced the optimized netlist by
	// its hash and timing summary, and made the metrics mandatory.
	// Version 4 (with sigVersion 3) stores netlist hashes that no
	// longer cover RAM names (netlist-hash-v2).
	recordVersion = 4
	sigVersion    = 3
)

func appendMetrics(dst []byte, m *Metrics) []byte {
	dst = codec.AppendVarint(dst, int64(m.Stmts))
	dst = codec.AppendVarint(dst, int64(m.LoC))
	dst = codec.AppendVarint(dst, int64(m.FanInLC))
	dst = codec.AppendVarint(dst, int64(m.FanInLCExact))
	dst = codec.AppendVarint(dst, int64(m.Nets))
	dst = codec.AppendVarint(dst, int64(m.Cells))
	dst = codec.AppendVarint(dst, int64(m.FFs))
	dst = codec.AppendFloat64(dst, m.FreqMHz)
	dst = codec.AppendFloat64(dst, m.AreaL)
	dst = codec.AppendFloat64(dst, m.AreaS)
	dst = codec.AppendFloat64(dst, m.PowerD)
	return codec.AppendFloat64(dst, m.PowerS)
}

func decodeMetrics(r *codec.Reader) (*Metrics, error) {
	m := &Metrics{
		Stmts:        int(r.Varint()),
		LoC:          int(r.Varint()),
		FanInLC:      int(r.Varint()),
		FanInLCExact: int(r.Varint()),
		Nets:         int(r.Varint()),
		Cells:        int(r.Varint()),
		FFs:          int(r.Varint()),
		FreqMHz:      r.Float64(),
		AreaL:        r.Float64(),
		AreaS:        r.Float64(),
		PowerD:       r.Float64(),
		PowerS:       r.Float64(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func appendTiming(dst []byte, t timing.Summary) []byte {
	dst = codec.AppendFloat64(dst, t.CriticalNs)
	return codec.AppendVarint(dst, int64(t.NearCritical))
}

func decodeTiming(r *codec.Reader) timing.Summary {
	return timing.Summary{CriticalNs: r.Float64(), NearCritical: int(r.Varint())}
}

// sigRecord is the cacheable outcome of synthesizing one signature —
// one (top module, resolved parameters) design point: the
// synthesis-derived metrics (source sums are added per unit at
// assembly), the elaborated instance count, the dedup removals, and
// the optimized netlist's structural hash and timing summary. It is
// the disk form of a Session flight-table entry, keyed by the design
// point's subtree sources ("sig" entries), so a remeasurement whose
// subtree is unchanged skips elaboration and synthesis entirely even
// in a fresh process.
type sigRecord struct {
	Metrics       *Metrics
	InstanceCount int
	Deduped       int
	NetlistHash   string
	Timing        timing.Summary
}

// sigRecordCodec persists *sigRecord (the "sig" cache entries).
var sigRecordCodec = codec.Codec[*sigRecord]{
	Name: "measure.sigRecord",
	Append: func(dst []byte, rec *sigRecord) []byte {
		dst = codec.AppendByte(dst, sigVersion)
		dst = appendMetrics(dst, rec.Metrics)
		dst = codec.AppendVarint(dst, int64(rec.InstanceCount))
		dst = codec.AppendVarint(dst, int64(rec.Deduped))
		dst = codec.AppendString(dst, rec.NetlistHash)
		return appendTiming(dst, rec.Timing)
	},
	Decode: func(r *codec.Reader) (*sigRecord, error) {
		if v := r.Byte(); r.Err() == nil && v != sigVersion {
			return nil, fmt.Errorf("%w: sig record structure version %d, want %d", codec.ErrCorrupt, v, sigVersion)
		}
		m, err := decodeMetrics(r)
		if err != nil {
			return nil, err
		}
		rec := &sigRecord{
			Metrics:       m,
			InstanceCount: int(r.Varint()),
			Deduped:       int(r.Varint()),
			NetlistHash:   r.String(),
			Timing:        decodeTiming(r),
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return rec, nil
	},
}

// compareSigRecords is the verify-mode comparator for "sig" entries:
// every field is result-determining, so all must match.
func compareSigRecords(cached, fresh *sigRecord) string {
	switch {
	case *cached.Metrics != *fresh.Metrics:
		return fmt.Sprintf("synthesis metrics differ: cached %+v, fresh %+v", *cached.Metrics, *fresh.Metrics)
	case cached.InstanceCount != fresh.InstanceCount:
		return fmt.Sprintf("instance count differs: cached %d, fresh %d", cached.InstanceCount, fresh.InstanceCount)
	case cached.Deduped != fresh.Deduped:
		return fmt.Sprintf("deduped instances differ: cached %d, fresh %d", cached.Deduped, fresh.Deduped)
	case cached.NetlistHash != fresh.NetlistHash:
		return fmt.Sprintf("optimized netlist hash differs: cached %s, fresh %s", cached.NetlistHash, fresh.NetlistHash)
	case cached.Timing != fresh.Timing:
		return fmt.Sprintf("timing summary differs: cached %+v, fresh %+v", cached.Timing, fresh.Timing)
	}
	return ""
}

// recordCodec persists *componentRecord — the shape a Session stores
// and serves per unit. The MinimizedParams map is written in sorted key
// order so identical records encode to identical bytes (the cache's
// verify mode and the golden tests rely on byte-stable encodes).
var recordCodec = codec.Codec[*componentRecord]{
	Name: "measure.componentRecord",
	Append: func(dst []byte, rec *componentRecord) []byte {
		dst = codec.AppendByte(dst, recordVersion)
		dst = appendMetrics(dst, rec.Metrics)
		dst = codec.AppendUvarint(dst, uint64(len(rec.UniqueModules)))
		for _, name := range rec.UniqueModules {
			dst = codec.AppendString(dst, name)
		}
		dst = codec.AppendUvarint(dst, uint64(len(rec.MinimizedParams)))
		names := make([]string, 0, len(rec.MinimizedParams))
		for name := range rec.MinimizedParams {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			dst = codec.AppendString(dst, name)
			dst = codec.AppendVarint(dst, rec.MinimizedParams[name])
		}
		dst = codec.AppendVarint(dst, int64(rec.InstanceCount))
		dst = codec.AppendVarint(dst, int64(rec.DedupedInstances))
		dst = codec.AppendString(dst, rec.NetlistHash)
		return appendTiming(dst, rec.Timing)
	},
	Decode: func(r *codec.Reader) (*componentRecord, error) {
		if v := r.Byte(); r.Err() == nil && v != recordVersion {
			return nil, fmt.Errorf("%w: record structure version %d, want %d", codec.ErrCorrupt, v, recordVersion)
		}
		m, err := decodeMetrics(r)
		if err != nil {
			return nil, err
		}
		rec := &componentRecord{Metrics: m}
		if n := r.Count(1); n > 0 {
			rec.UniqueModules = make([]string, n)
			for i := range rec.UniqueModules {
				rec.UniqueModules[i] = r.String()
			}
		}
		if n := r.Count(2); n > 0 {
			rec.MinimizedParams = make(map[string]int64, n)
			for i := 0; i < n; i++ {
				name := r.String()
				rec.MinimizedParams[name] = r.Varint()
				if r.Err() != nil {
					return nil, r.Err()
				}
			}
		}
		rec.InstanceCount = int(r.Varint())
		rec.DedupedInstances = int(r.Varint())
		rec.NetlistHash = r.String()
		rec.Timing = decodeTiming(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		return rec, nil
	},
}
