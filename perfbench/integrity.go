package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"safeguard/internal/bits"
	"safeguard/internal/ecc"
	"safeguard/internal/mac"
	"safeguard/internal/memsys"
	"safeguard/internal/qarma"
)

// integrity-rw: the paper's mechanism itself. Four functional
// memsys.Memory instances (SECDED, SafeGuard-SECDED, Chipkill,
// SafeGuard-Chipkill) hold the same working set with the same persistent
// faults on a few percent of its lines. Each unit applies one seeded
// batch of reads and writes to all four; reads of faulty lines drive the
// codecs' correction searches. One client runs the units in index order
// on one goroutine, so the outputs are a function of the seed alone.

const (
	integrityLines      = 2048 // working-set lines per memory
	integrityBatch      = 2048 // line operations per codec per unit
	integrityReadPct    = 75   // percent of operations that are reads
	integrityCheckpoint = 4    // units of one copy between golden digests
	spareBatch          = 256  // spare-store reads per cached unit
	spareSlices         = 32   // the cached unit's reads are spread over this many points of its unit
)

// integrityFaults is how many lines carry each fault class.
var integrityFaults = []struct {
	class string
	lines int
}{
	{"flip1", 32}, // one flipped data bit
	{"stuck", 16}, // one stuck-at data bit (visible when the data disagrees)
	{"meta", 8},   // one flipped metadata bit
	{"chip", 16},  // a whole x4 chip returning garbage
	{"rh", 16},    // three Row-Hammer flips, two of them in one word
}

type integrityRW struct {
	e      *env
	key    [16]byte
	mems   []*memsys.Memory
	base   []memsys.Stats // Stats right after set-up
	spare  *memsys.Memory // SafeGuard-Chipkill with its spare-line store filled
	spares []uint64       // the lines held in that store
	counts map[string]int // "<codec>.<status>" and "<codec>.silent", cumulative
	macs   map[string]int // "<codec>" -> MAC checks over reads
	reads  map[string]int
	faulty int // MAC checks against faulty data
	hits   []unitResult
}

// newIntegrityRW fills the four memories with the working set and its
// faults (a function of the seed alone).
func newIntegrityRW(e *env) (runner, error) {
	w := &integrityRW{e: e, counts: make(map[string]int), macs: make(map[string]int), reads: make(map[string]int)}
	rng := rand.New(rand.NewPCG(e.seed, 0x1ea7))
	binary.LittleEndian.PutUint64(w.key[:8], rng.Uint64())
	binary.LittleEndian.PutUint64(w.key[8:], rng.Uint64())
	rng = rand.New(rand.NewPCG(e.seed, 0xfa17))
	keyed := mac.NewKeyed(w.key)
	for _, codec := range []ecc.Codec{ecc.NewSECDED(), ecc.NewSafeGuardSECDED(keyed), ecc.NewChipkill(), ecc.NewSafeGuardChipkill(keyed)} {
		w.mems = append(w.mems, memsys.New(codec))
	}
	for l := 0; l < integrityLines; l++ {
		line := randomLine(rng)
		for _, m := range w.mems {
			m.Write(uint64(l)*bits.LineBytes, line)
		}
	}
	order := rng.Perm(integrityLines)
	for _, fc := range integrityFaults {
		for k := 0; k < fc.lines; k++ {
			addr := uint64(order[0]) * bits.LineBytes
			order = order[1:]
			f := makeFault(fc.class, k, rng)
			for _, m := range w.mems {
				m.AddFault(addr, f)
			}
		}
	}
	for _, m := range w.mems {
		w.base = append(w.base, m.Stats)
	}
	return w, w.fillSpares(keyed, rng)
}

// fillSpares builds the cached units' memory: SafeGuard-Chipkill over a
// few lines with single-bit faults, each read until its repair is served
// from the spare-line store (footnote 2: a line with a known single-bit
// fault is served from controller SRAM). A clean read before each repair
// keeps the codec's chip-history tracker from reading successive repairs
// as failing chips.
func (w *integrityRW) fillSpares(keyed *mac.Keyed, rng *rand.Rand) error {
	w.spare = memsys.New(ecc.NewSafeGuardChipkill(keyed))
	const clean = 0
	w.spare.Write(clean, randomLine(rng))
	for l := 1; l <= ecc.SpareLines; l++ {
		addr := uint64(l) * bits.LineBytes
		w.spare.Write(addr, randomLine(rng))
		w.spare.AddFault(addr, memsys.FlipBits(rng.IntN(bits.LineBytes*8)))
		var res ecc.Result
		var err error
		for _, a := range []uint64{clean, addr, addr} {
			if _, res, err = w.spare.Read(a); err != nil {
				return err
			}
		}
		if res.UsedSpare {
			w.spares = append(w.spares, addr)
		}
	}
	if len(w.spares) == 0 {
		return errors.New("no single-bit faulty line reached the spare-line store")
	}
	return nil
}

func randomLine(rng *rand.Rand) bits.Line {
	var l bits.Line
	for i := range l {
		l[i] = rng.Uint64()
	}
	return l
}

// makeFault builds the k-th fault of a class. The placement of the
// costly classes is stratified over k (chip k mod 16, word k mod 8,
// metadata byte k mod 8) so every seed sees the same mix of correction
// searches and only the bit-level details are random.
func makeFault(class string, k int, rng *rand.Rand) memsys.Fault {
	const wordBits = 64
	lineBits := bits.LineBytes * 8
	switch class {
	case "flip1":
		return memsys.FlipBits(rng.IntN(lineBits))
	case "stuck":
		return memsys.StuckBit(rng.IntN(lineBits), uint64(rng.IntN(2)))
	case "meta":
		return memsys.FlipMeta(1 << (8*(k%8) + rng.IntN(8)))
	case "chip":
		// x4 chip c supplies nibble 16w+c of every 64-bit word w.
		c := k % 16
		var pos []int
		for w := 0; w < bits.LineWords; w++ {
			mask := 1 + rng.IntN(15)
			for b := 0; b < 4; b++ {
				if mask&(1<<b) != 0 {
					pos = append(pos, (16*w+c)*4+b)
				}
			}
		}
		return memsys.FlipBits(pos...)
	default: // "rh": two flips in one word, one in the next
		w := k % bits.LineWords
		a, b := rng.IntN(wordBits), rng.IntN(wordBits-1)
		if b >= a {
			b++
		}
		next := (w+1)%bits.LineWords*wordBits + rng.IntN(wordBits)
		return memsys.FlipBits(w*wordBits+a, w*wordBits+b, next)
	}
}

func (w *integrityRW) clients() int { return 1 }
func (w *integrityRW) batch() int   { return 1 }
func (w *integrityRW) close()       {}

type lineOp struct {
	addr  uint64
	write bool
	data  bits.Line
}

// ops is unit i's operation batch.
func (w *integrityRW) ops(i int) []lineOp {
	rng := rand.New(rand.NewPCG(w.e.seed, 1<<32+uint64(i)))
	ops := make([]lineOp, integrityBatch)
	for k := range ops {
		ops[k].addr = uint64(rng.IntN(integrityLines)) * bits.LineBytes
		if rng.IntN(100) >= integrityReadPct {
			ops[k].write = true
			ops[k].data = randomLine(rng)
		}
	}
	return ops
}

func (w *integrityRW) unit(i int, tr *tracer, parent int) unitResult {
	ops := w.ops(i)
	before := make([]memsys.Stats, len(w.mems))
	for c, m := range w.mems {
		before[c] = m.Stats
	}
	type readOut struct {
		status            ecc.Status
		checks, faultyMAC int
	}
	outs := make([]readOut, 0, len(ops)*len(w.mems))
	// The unit's cached reads are interleaved with its operations, so
	// both sample the same stretch of host time; their time is not the
	// unit's.
	h := unitResult{index: i}
	var spareDur time.Duration
	step := len(ops) * len(w.mems) / spareSlices
	t0 := time.Now()
	for c, m := range w.mems {
		for k, op := range ops {
			if (c*len(ops)+k)%step == 0 {
				spareDur += w.spareHits(&h, spareBatch/spareSlices)
			}
			if op.write {
				id := tr.begin("memsys.write."+codecs[c], parent, i)
				m.Write(op.addr, op.data)
				tr.end(id)
				continue
			}
			id := tr.begin("memsys.read", parent, i)
			_, res, err := m.Read(op.addr)
			tr.endAs(id, "memsys.read."+codecs[c]+"."+res.Status.String())
			if err != nil {
				return unitResult{ms: msSince(t0), err: err}
			}
			outs = append(outs, readOut{res.Status, res.MACChecks, res.FaultyMACChecks})
		}
	}
	u := unitResult{ms: ms(time.Since(t0) - spareDur), work: float64(len(ops) * len(w.mems))}
	h.ms = ms(spareDur)
	w.hits = append(w.hits, h)

	k := 0
	for c, m := range w.mems {
		for _, op := range ops {
			if op.write {
				continue
			}
			o := outs[k]
			k++
			w.counts[codecs[c]+"."+o.status.String()]++
			w.macs[codecs[c]] += o.checks
			w.reads[codecs[c]]++
			w.faulty += o.faultyMAC
		}
		silent := m.Stats.SilentCorruptions - before[c].SilentCorruptions
		w.counts[codecs[c]+".silent"] += int(silent)
		if silent > 0 && strings.HasPrefix(codecs[c], "sg-") {
			u.err = fmt.Errorf("%s delivered %d silently corrupted lines", codecs[c], silent)
		}
	}
	if (i+1)%integrityCheckpoint == 0 {
		u.digest = w.countsDigest()
	}
	return u
}

// countsDigest renders the cumulative per-codec status counts.
func (w *integrityRW) countsDigest() string {
	keys := make([]string, 0, len(w.counts))
	for k := range w.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, w.counts[k])
	}
	return strings.TrimSpace(b.String())
}

// spareHits reads n lines held in the spare-line store and returns the
// time taken. Each read must be a spare hit delivering the written data;
// a failure is recorded in the cached unit h.
func (w *integrityRW) spareHits(h *unitResult, n int) time.Duration {
	silent := w.spare.Stats.SilentCorruptions
	miss := 0
	t0 := time.Now()
	for j := 0; j < n; j++ {
		_, res, err := w.spare.Read(w.spares[j%len(w.spares)])
		if err != nil && h.err == nil {
			h.err = err
		}
		if !res.UsedSpare {
			miss++
		}
	}
	d := time.Since(t0)
	switch {
	case h.err != nil:
	case miss > 0:
		h.err = fmt.Errorf("%d of %d reads missed the spare-line store", miss, n)
	case w.spare.Stats.SilentCorruptions != silent:
		h.err = errors.New("spare-line reads delivered corrupted data")
	}
	return d
}

func (w *integrityRW) cached() []unitResult { return w.hits }

// sink keeps the timed MAC and cipher calls from being optimized away.
var sink uint64

// macCalls is how many calls one mac.mac or qarma.encrypt span times.
const macCalls = 2000

// extras times the MAC and the block cipher under it in isolation.
func (w *integrityRW) extras(tr *tracer) []unitResult {
	const reps = 9
	keyed := mac.NewKeyed(w.key)
	cipher := qarma.NewFromBytes(w.key)
	line := randomLine(rand.New(rand.NewPCG(w.e.seed, 7)))
	for r := 0; r < reps; r++ {
		id := tr.begin("mac.mac", -1, -1)
		for j := 0; j < macCalls; j++ {
			sink ^= keyed.MAC(line, uint64(j)*bits.LineBytes, 56)
		}
		tr.end(id)
		id = tr.begin("qarma.encrypt", -1, -1)
		for j := 0; j < macCalls; j++ {
			sink ^= cipher.Encrypt(line[j%bits.LineWords], uint64(j))
		}
		tr.end(id)
	}
	return nil
}

func (w *integrityRW) layers(spans []span, units []unitResult, m map[string]float64) {
	m["mac.mac_ns"] = median(durationsMS(spans, "mac.mac")) * 1e6 / macCalls
	m["qarma.encrypt_ns"] = median(durationsMS(spans, "qarma.encrypt")) * 1e6 / macCalls
	for c := range codecs {
		s, b := w.mems[c].Stats, w.base[c]
		m["memsys.reads"] += float64(s.Reads - b.Reads)
		m["memsys.writes"] += float64(s.Writes - b.Writes)
		m["memsys.corrected"] += float64(s.Corrected - b.Corrected)
		m["memsys.dues"] += float64(s.DUEs - b.DUEs)
		m["memsys.silent"] += float64(s.SilentCorruptions - b.SilentCorruptions)
	}
	m["ecc.faulty_mac_checks"] = float64(w.faulty)
	for _, name := range codecs {
		m["memsys.write_us."+name] = median(durationsMS(spans, "memsys.write."+name)) * 1e3
		for _, st := range []ecc.Status{ecc.OK, ecc.Corrected, ecc.DUE} {
			m["memsys.read_us."+name+"."+st.String()] = median(durationsMS(spans, "memsys.read."+name+"."+st.String())) * 1e3
		}
		m["ecc.mac_checks_per_read."+name] = ratio(float64(w.macs[name]), float64(w.reads[name]))
	}
}
