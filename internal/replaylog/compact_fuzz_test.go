package replaylog

import (
	"fmt"
	"reflect"
	"testing"
)

// genLog turns fuzz bytes into a log, two bytes per entry: a kind
// (including invalid and unknown ones) and a key drawn from eight
// addresses or handles, so frees, destroys and re-creations of the same
// key are common.
func genLog(b []byte) []Entry {
	var out []Entry
	for i := 0; i+1 < len(b); i += 2 {
		key := uint64(b[i+1] % 8)
		out = append(out, Entry{
			Kind:   Kind(b[i] % 17),
			Size:   uint64(b[i+1]>>3) + 1,
			Addr:   0x1000 * (key + 1),
			Handle: key,
			Module: fmt.Sprintf("m%d", b[i+1]>>6),
			Name:   fmt.Sprintf("k%d", b[i+1]>>3),
		})
	}
	return out
}

// creationsOnly drops from log every entry that ends a resource, every
// unknown kind and every function registration that names no
// registered fat binary: what remains only creates.
func creationsOnly(log []Entry) []Entry {
	var out []Entry
	fats := make(map[uint64]bool)
	for _, e := range log {
		switch e.Kind {
		case KindFree, KindFreeHost, KindFreeHostAlloc, KindFreeManaged,
			KindStreamDestroy, KindEventDestroy, KindUnregisterFatBinary, KindInvalid:
			continue
		case KindRegisterFatBinary:
			fats[e.Handle] = true
		case KindRegisterFunction:
			if !fats[e.Handle] {
				continue
			}
		default:
			if e.Kind > KindUnregisterFatBinary {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

func cat(a, b []Entry) []Entry { return append(append([]Entry(nil), a...), b...) }

// FuzzCompactLog checks that Compact is a normal form of the log:
//
//   - ActiveOf(Compact(A)++T) == ActiveOf(A++T): the normal form
//     stands for the log under any calls that follow;
//   - Compact(Compact(A)++B) == Compact(A++B): compacting early, as
//     Log.Append does, changes nothing later;
//   - Compact is idempotent;
//   - a log that only creates is its own normal form.
//
// The committed corpus (testdata/fuzz/FuzzCompactLog) names the shapes:
// a key created again while live, dead highest handles, fat binaries
// with functions, and malloc/free churn.
func FuzzCompactLog(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 1, 1}, []byte{2, 1}, []byte{1, 1})
	f.Add([]byte{9, 3, 10, 3, 11, 5, 12, 5, 13, 2, 14, 2, 15, 2}, []byte{9, 4}, []byte{10, 4})
	f.Fuzz(func(t *testing.T, a, b, tail []byte) {
		A, B, T := genLog(a), genLog(b), genLog(tail)
		C := Compact(A)
		if got, want := ActiveOf(cat(C, T)), ActiveOf(cat(A, T)); !reflect.DeepEqual(got, want) {
			t.Fatalf("ActiveOf(Compact(A)++T) = %+v, ActiveOf(A++T) = %+v\nA = %v\nT = %v", got, want, A, T)
		}
		if got, want := Compact(cat(C, B)), Compact(cat(A, B)); !reflect.DeepEqual(got, want) {
			t.Fatalf("Compact(Compact(A)++B) = %v, Compact(A++B) = %v\nA = %v\nB = %v", got, want, A, B)
		}
		if again := Compact(C); !reflect.DeepEqual(again, C) {
			t.Fatalf("Compact is not idempotent: %v, then %v", C, again)
		}
		if L := creationsOnly(A); !reflect.DeepEqual(Compact(L), L) && len(L) > 0 {
			t.Fatalf("a log that only creates is not its own normal form: %v, compacted %v", L, Compact(L))
		}
	})
}
