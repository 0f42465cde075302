package service

// Warm-state snapshots (docs/DEPLOYMENT.md). The value of a resident
// slicerd is state that took solver time to build: frame-summary
// tables, shared solver verdicts, compiled programs with their
// analyses. A restart — deploy, OOM-kill, node drain — throws all of
// it away and the next minutes of traffic pay cold-start prices.
// SaveSnapshot serializes that state to a versioned file (periodically
// and on graceful drain); RestoreSnapshot rebuilds it on boot.
//
// The soundness contract mirrors internal/summ's element-wise key
// verification: nothing from disk is ever trusted into an answer.
//
//   - The file carries a magic string and format version; any mismatch
//     discards the whole snapshot (cold boot).
//   - Every record carries a content checksum computed field by field;
//     a record that fails it is dropped.
//   - A program record must recompile from its embedded source to the
//     exact source hash AND cfa.ProgramFingerprint it was saved under,
//     or it is dropped — so summaries can never attach to a program
//     whose edges mean something else.
//   - Summary records go through summ.Table.Restore, which re-derives
//     both key hashes and the fast-apply vector and re-validates the
//     structure; at lookup time they still face the table's element-
//     wise segment/live-set comparison like any live insert.
//   - Solver verdicts are keyed by canonical formula serializations
//     (logic.Key): an intact key matches exactly the formula it
//     encodes or nothing, and corrupt records never survive the
//     checksum.
//
// A corrupt, truncated, stale, or adversarially edited snapshot can
// therefore only shrink the restored set — misses, never wrong
// answers. TestSnapshotCorruption flips bytes across the file and
// proves it.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"pathslice/internal/cfa"
	"pathslice/internal/compile"
	"pathslice/internal/core"
	"pathslice/internal/smt"
	"pathslice/internal/summ"
)

const (
	// snapMagic identifies the file type; the trailing byte is the
	// framing version (bump on container-format changes).
	snapMagic = "pslicsnap\x01"
	// snapVersion is the semantic version of the records: bump it
	// whenever the meaning of a summary decision vector, a canonical
	// formula key, or the fingerprint scheme changes, so stale
	// snapshots from older binaries are discarded wholesale.
	snapVersion = 1
)

// snapFile is the gob payload following the magic string.
type snapFile struct {
	Version  int
	SavedAt  int64 // unix milliseconds, informational
	Programs []snapProgram
	Verdicts []snapVerdict
}

// snapProgram is one program-LRU entry: enough to recompile (Source)
// and to prove the recompilation is the program the summaries were
// recorded against (Key, Fingerprint).
type snapProgram struct {
	Key         string
	Fingerprint uint64
	Source      string
	Tables      []snapTable
}

// snapTable is one per-option-set summary table.
type snapTable struct {
	Opts slicerKey
	Sums []snapSummary
}

// snapSummary pairs a summary with its content checksum.
type snapSummary struct {
	S     summ.Summary
	Check uint64
}

// snapVerdict is one shared solver-cache entry with its checksum.
type snapVerdict struct {
	Key   string
	Sat   bool
	Check uint64
}

// ---------------------------------------------------------------------------
// Checksums
//
// FNV-1a folded field by field with explicit length framing, so two
// different records can never hash equal by sliding bytes between
// fields. This is an integrity check against corruption (the threat is
// bit rot and truncation, not an adversary with write access to the
// snapshot *and* the intent to forge a colliding record — such an
// adversary could replace the binary instead).

type chk struct{ h uint64 }

func newChk() chk { return chk{h: 0xcbf29ce484222325} }

func (c *chk) byte(b byte) {
	c.h = (c.h ^ uint64(b)) * 0x100000001b3
}

func (c *chk) u64(v uint64) {
	for i := 0; i < 8; i++ {
		c.byte(byte(v >> (8 * i)))
	}
}

func (c *chk) str(s string) {
	c.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		c.byte(s[i])
	}
}

func (c *chk) lvals(ls []cfa.Lvalue) {
	c.u64(uint64(len(ls)))
	for _, l := range ls {
		c.str(l.Var)
		if l.Deref {
			c.byte(1)
		} else {
			c.byte(0)
		}
	}
}

func summaryChecksum(s *summ.Summary) uint64 {
	c := newChk()
	c.str(s.Callee)
	c.u64(uint64(len(s.EdgeIDs)))
	for _, id := range s.EdgeIDs {
		c.u64(uint64(uint32(id)))
	}
	c.lvals(s.Live)
	c.u64(uint64(len(s.Dec)))
	for _, d := range s.Dec {
		c.byte(d)
	}
	c.lvals(s.Kills)
	c.lvals(s.Adds)
	e := s.Effects
	for _, v := range [...]int{
		e.TakenAssign, e.TakenAssume, e.TakenCall,
		e.TakenReturn, e.SkippedFrames, e.SkippedGuardChains,
	} {
		c.u64(uint64(int64(v)))
	}
	return c.h
}

func verdictChecksum(key string, sat bool) uint64 {
	c := newChk()
	c.str(key)
	if sat {
		c.byte(1)
	} else {
		c.byte(0)
	}
	return c.h
}

// ---------------------------------------------------------------------------
// Save

// SaveSnapshot serializes the warm state — program-LRU sources and
// summary tables plus shared solver-cache verdicts — to path,
// atomically (write temp file, rename). Checkers' abstract-post memos
// are deliberately not snapshotted: they key on in-memory predicate
// identities that do not survive a process, and rebuilding them is
// exactly what the restored solver cache accelerates. Saves are
// serialized: the periodic loop and a drain-time save share one temp
// file, and the later save must land last.
func (s *Server) SaveSnapshot(path string) error {
	if path == "" {
		return fmt.Errorf("service: no snapshot path configured")
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	f := s.collectSnapshot()
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		mSnapSaveErrors.Inc()
		return fmt.Errorf("service: encoding snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		mSnapSaveErrors.Inc()
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		mSnapSaveErrors.Inc()
		return err
	}
	s.snapSaves.Add(1)
	s.snapLastBytes.Store(int64(buf.Len()))
	mSnapSaves.Inc()
	mSnapBytes.Set(int64(buf.Len()))
	return nil
}

// collectSnapshot gathers a consistent-enough view of the warm state.
// Programs are listed most-recently-used first; summaries are the
// immutable entries of each table at collection time. Concurrent
// inserts may or may not make the cut — a snapshot is a warm-up hint,
// not a transaction log.
func (s *Server) collectSnapshot() *snapFile {
	f := &snapFile{Version: snapVersion, SavedAt: time.Now().UnixMilli()}

	s.mu.Lock()
	states := make([]*programState, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		states = append(states, el.Value.(*programState))
	}
	s.mu.Unlock()

	for _, ps := range states {
		sp := snapProgram{Key: ps.key, Fingerprint: ps.fp, Source: ps.src}
		ps.mu.Lock()
		type tableRef struct {
			k slicerKey
			t *summ.Table
		}
		var tables []tableRef
		for k, sl := range ps.slicers {
			if sl.Summ != nil {
				tables = append(tables, tableRef{k, sl.Summ})
			}
		}
		ps.mu.Unlock()
		for _, tr := range tables {
			st := snapTable{Opts: tr.k}
			for _, sum := range tr.t.Export() {
				st.Sums = append(st.Sums, snapSummary{S: *sum, Check: summaryChecksum(sum)})
			}
			if len(st.Sums) > 0 {
				sp.Tables = append(sp.Tables, st)
			}
		}
		f.Programs = append(f.Programs, sp)
	}

	for _, e := range s.cache.Export() {
		f.Verdicts = append(f.Verdicts, snapVerdict{
			Key: e.Key, Sat: e.Sat, Check: verdictChecksum(e.Key, e.Sat),
		})
	}
	return f
}

// ---------------------------------------------------------------------------
// Restore

// RestoreSnapshot loads warm state from path. It returns the number of
// records (programs + summaries + verdicts) accepted after
// verification; every rejected record is counted in the
// slicerd_snapshot_dropped_total metric and the stats snapshot. Any
// error — missing file, bad magic, version skew, undecodable payload —
// leaves the server in its current (typically cold) state.
func (s *Server) RestoreSnapshot(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if !bytes.HasPrefix(raw, []byte(snapMagic)) {
		s.dropRecords(1)
		return 0, fmt.Errorf("service: %s: not a slicerd snapshot", path)
	}
	var f snapFile
	if err := gob.NewDecoder(bytes.NewReader(raw[len(snapMagic):])).Decode(&f); err != nil {
		s.dropRecords(1)
		return 0, fmt.Errorf("service: %s: undecodable snapshot: %w", path, err)
	}
	if f.Version != snapVersion {
		s.dropRecords(1)
		return 0, fmt.Errorf("service: %s: snapshot version %d, want %d", path, f.Version, snapVersion)
	}

	accepted := 0

	// Programs were saved MRU-first; restore oldest-first so the LRU
	// ends up in the saved recency order.
	for i := len(f.Programs) - 1; i >= 0; i-- {
		n, ok := s.restoreProgram(&f.Programs[i])
		accepted += n
		if !ok {
			continue
		}
	}

	var verdicts []smt.CacheEntry
	for _, v := range f.Verdicts {
		if verdictChecksum(v.Key, v.Sat) != v.Check {
			s.dropRecords(1)
			continue
		}
		verdicts = append(verdicts, smt.CacheEntry{Key: v.Key, Sat: v.Sat})
	}
	nv := s.cache.Restore(verdicts)
	accepted += nv
	s.snapRestoredVerdicts.Add(int64(nv))
	mSnapRestVerdicts.Add(int64(nv))
	return accepted, nil
}

// restoreProgram verifies and installs one program record. The boolean
// reports whether the program itself was accepted.
func (s *Server) restoreProgram(sp *snapProgram) (int, bool) {
	if sp.Source == "" || int64(len(sp.Source)) > s.cfg.MaxSourceBytes ||
		sourceKey(sp.Source) != sp.Key {
		s.dropRecords(1)
		return 0, false
	}
	prog, err := compile.Source(sp.Source)
	if err != nil {
		s.dropRecords(1)
		return 0, false
	}
	if cfa.ProgramFingerprint(prog) != sp.Fingerprint {
		s.dropRecords(1)
		return 0, false
	}
	ps := &programState{
		key:      sp.Key,
		fp:       sp.Fingerprint,
		src:      sp.Source,
		prog:     prog,
		slicers:  make(map[slicerKey]*core.Slicer),
		checkers: make(map[checkerKey]*checkerBox),
	}

	s.mu.Lock()
	if _, exists := s.progs[sp.Key]; exists {
		// Already resident (restore raced live traffic, or a test
		// restored twice): keep the live state, skip the record.
		s.mu.Unlock()
		return 0, false
	}
	s.insertProgramLocked(ps)
	s.mu.Unlock()

	accepted := 1
	s.snapRestoredPrograms.Add(1)
	mSnapRestPrograms.Inc()

	numEdges := prog.NumEdges()
	for _, st := range sp.Tables {
		sl := ps.slicer(st.Opts) // builds the analyses once, like a live miss
		for i := range st.Sums {
			rec := &st.Sums[i]
			if summaryChecksum(&rec.S) != rec.Check || !edgeIDsValid(rec.S.EdgeIDs, numEdges) {
				s.dropRecords(1)
				continue
			}
			sum := rec.S // copy: the table owns what it inserts
			if !sl.Summ.Restore(&sum) {
				s.dropRecords(1)
				continue
			}
			accepted++
			s.snapRestoredSummaries.Add(1)
			mSnapRestSummaries.Inc()
		}
	}
	return accepted, true
}

func edgeIDsValid(ids []int32, numEdges int) bool {
	for _, id := range ids {
		if id < 0 || int(id) >= numEdges {
			return false
		}
	}
	return true
}

func (s *Server) dropRecords(n int64) {
	s.snapDropped.Add(n)
	mSnapDropped.Add(n)
}
