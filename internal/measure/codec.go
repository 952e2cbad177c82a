package measure

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/codec"
	"repro/internal/timing"
)

// Binary codecs for the two records the disk cache persists: the
// minimized parameters of one accounting search and the signature
// record of one synthesized design point. Explicit field-by-field encoders over
// internal/codec's primitives — what encoding/gob did by reflection,
// without the reflection. Each payload opens with its own structure
// version byte so the layout can evolve under one cache schema: an
// entry of another version decodes as codec.ErrCorrupt and is
// recomputed.

const (
	// sigVersion 2 replaced the optimized netlist by its hash and
	// timing summary, and made the metrics mandatory. Version 3 stores
	// netlist hashes that no longer cover RAM names (netlist-hash-v2).
	sigVersion    = 3
	searchVersion = 1
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

// searchCodec persists *searchResult (the "search" cache entries): the
// minimized parameters, in sorted name order so equal maps encode to
// equal bytes (the cache's verify mode and the golden tests rely on
// byte-stable encodes). The search counters are not stored: they
// describe the run that searched, not the result, so a decoded search
// reports none. Decoding rejects a name that does not sort strictly
// after the one before it, so no decoded search holds a duplicate
// parameter or silently drops one.
var searchCodec = codec.Codec[*searchResult]{
	Name: "measure.searchResult",
	Append: func(dst []byte, sr *searchResult) []byte {
		dst = codec.AppendByte(dst, searchVersion)
		dst = codec.AppendUvarint(dst, uint64(len(sr.params)))
		names := make([]string, 0, len(sr.params))
		for name := range sr.params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			dst = codec.AppendString(dst, name)
			dst = codec.AppendVarint(dst, sr.params[name])
		}
		return dst
	},
	Decode: func(r *codec.Reader) (*searchResult, error) {
		if v := r.Byte(); r.Err() == nil && v != searchVersion {
			return nil, fmt.Errorf("%w: search record structure version %d, want %d", codec.ErrCorrupt, v, searchVersion)
		}
		n := r.Count(2)
		params := make(map[string]int64, n)
		prev := ""
		for i := 0; i < n; i++ {
			name := r.String()
			if r.Err() == nil && i > 0 && name <= prev {
				return nil, fmt.Errorf("%w: search record parameter %q after %q", codec.ErrCorrupt, name, prev)
			}
			params[name] = r.Varint()
			prev = name
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return &searchResult{params: params}, nil
	},
}

// compareSearches is the verify-mode comparator for "search" entries:
// the minimized parameters must match; the counters are not stored.
func compareSearches(cached, fresh *searchResult) string {
	if !maps.Equal(cached.params, fresh.params) {
		return fmt.Sprintf("minimized parameters differ: cached %v, fresh %v", cached.params, fresh.params)
	}
	return ""
}
