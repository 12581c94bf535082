package experiment

// Named-save tests: save then resume matches the in-memory segmented run,
// later resumes are answered from the store, and tampered, path-escaping and
// missing names are refused.

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"ctcp/internal/emu"
	"ctcp/internal/pipeline"
	"ctcp/internal/snap"
	"ctcp/internal/workload"
)

const (
	nameBudget = uint64(8_000)
	nameAt     = nameBudget / 2
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// savedConsumed restores a named save's checkpoint and reports how many
// committed instructions it had consumed.
func savedConsumed(t *testing.T, st *Store, e NameEntry) uint64 {
	t.Helper()
	bm, _ := workload.ByName(e.Benchmark)
	cfg := StrategyConfigs()[e.Config]
	p := pipeline.New(&emu.LimitStream{S: emu.New(bm.ProgramFor(e.Budget)), Budget: e.Budget}, cfg)
	fp, err := ParseFP(e.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snap.ReadFile(st.ckptPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	checkpointRun(&rd.Codec, fp)
	p.Restore(rd)
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	return p.Consumed()
}

// TestNameSaveResumeBitExact: a save stops at its checkpoint without a
// result, and resuming it yields Stats — every counter — identical to the
// same segmented run kept in memory.
func TestNameSaveResumeBitExact(t *testing.T) {
	for _, config := range []string{"base", "fdrt", "issue4"} {
		config := config
		t.Run(config, func(t *testing.T) {
			t.Parallel()
			st := openTestStore(t)
			e, err := SaveName(st, "pause-"+config, "gzip", config, nameBudget, nameAt)
			if err != nil {
				t.Fatal(err)
			}
			if e.Status != NameCheckpoint || st.Len() != 0 {
				t.Fatalf("after save: status %q, %d records; want a checkpoint and no record", e.Status, st.Len())
			}
			if got := savedConsumed(t, st, e); got != nameAt {
				t.Fatalf("checkpoint consumed %d, want %d", got, nameAt)
			}
			_, got, err := ResumeName(st, e.Name)
			if err != nil {
				t.Fatal(err)
			}
			want := segmentedRun(t, "gzip", StrategyConfigs()[config], nameBudget, nameAt)
			if !reflect.DeepEqual(want, got) {
				wj, _ := json.Marshal(want)
				gj, _ := json.Marshal(got)
				t.Errorf("resumed save diverged from segmented reference\n want %s\n got  %s", wj, gj)
			}
		})
	}
}

// TestNameSecondResumeFromStore: the first resume finishes the run into the
// store; the second is a store hit with identical stats.
func TestNameSecondResumeFromStore(t *testing.T) {
	st := openTestStore(t)
	if _, err := SaveName(st, "twice", "mcf", "fdrt", nameBudget, nameAt); err != nil {
		t.Fatal(err)
	}
	_, first, err := ResumeName(st, "twice")
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := st.Counts(); hits != 0 {
		t.Fatalf("first resume hit the store %d times; it had only a checkpoint", hits)
	}
	e, second, err := ResumeName(st, "twice")
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if hits, _, _ := st.Counts(); hits != 1 || e.Status != NameDone {
		t.Errorf("second resume: %d store hits, status %q; want 1 hit, done", hits, e.Status)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second resume's stats differ from the first")
	}
}

// TestNameTamperedEntryRefused: an entry whose fields no longer reproduce its
// fingerprint (tampering, or drifted configuration tables) is refused.
func TestNameTamperedEntryRefused(t *testing.T) {
	st := openTestStore(t)
	if _, err := SaveName(st, "fresh", "gzip", "base", nameBudget, nameAt); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(st.namePath("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		edit  func(*NameEntry)
	}{
		{"config", func(e *NameEntry) { e.Config = "fdrt" }},
		{"budget", func(e *NameEntry) { e.Budget *= 2 }},
		{"every", func(e *NameEntry) { e.Every /= 2 }},
	} {
		var e NameEntry
		if err := json.Unmarshal(orig, &e); err != nil {
			t.Fatal(err)
		}
		tc.edit(&e)
		buf, _ := json.Marshal(e)
		if err := os.WriteFile(st.namePath("fresh"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeName(st, "fresh"); err == nil || !strings.Contains(err.Error(), "does not reproduce") {
			t.Errorf("tampered %s: err = %v, want a fingerprint refusal", tc.field, err)
		}
	}
}

// TestNamesList: entries list sorted by name with their run's status, name
// files stay out of the record count, and path-escaping, unknown and
// orphaned names are refused.
func TestNamesList(t *testing.T) {
	st := openTestStore(t)
	saves := []struct {
		name, config string
		at           uint64
	}{
		{"zeta", "base", nameAt},
		{"alpha", "fdrt", nameAt},
		{"gone", "issue4", nameAt},
		{"early", "base", nameBudget}, // finishes before the save point
	}
	for _, s := range saves {
		if _, err := SaveName(st, s.name, "gzip", s.config, nameBudget, s.at); err != nil {
			t.Fatal(err)
		}
	}
	gone, err := st.readName("gone")
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := ParseFP(gone.Fingerprint)
	if err := os.Remove(st.ckptPath(fp)); err != nil {
		t.Fatal(err)
	}

	entries, err := Names(st)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name+":"+e.Status)
	}
	want := []string{"alpha:checkpoint", "early:done", "gone:missing", "zeta:checkpoint"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if n := st.Len(); n != 1 {
		t.Errorf("Store.Len = %d, want 1 (early's record; name files do not count)", n)
	}

	if _, err := SaveName(st, "../escape", "gzip", "base", nameBudget, nameAt); err == nil {
		t.Error("path-escaping name saved")
	}
	if _, _, err := ResumeName(st, "../escape"); err == nil {
		t.Error("path-escaping name resumed")
	}
	if _, _, err := ResumeName(st, "nope"); err == nil {
		t.Error("missing name resumed")
	}
	if _, _, err := ResumeName(st, "gone"); err == nil || !strings.Contains(err.Error(), "no checkpoint or result") {
		t.Errorf("name without checkpoint or record: err = %v, want refusal", err)
	}
}
