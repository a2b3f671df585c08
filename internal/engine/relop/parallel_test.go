package relop

import "testing"

func TestMorselsPartition(t *testing.T) {
	cases := []struct {
		rows, align, threads int
	}{
		{1_499_451, 1, 16},
		{1_499_451, 1024, 16},
		{100, 1024, 8},
		{0, 1, 4},
		{7, 1, 2},
	}
	for _, tc := range cases {
		ms := Morsels(tc.rows, tc.align, tc.threads)
		covered := 0
		for i, mo := range ms {
			if mo.Start != covered || mo.End <= mo.Start {
				t.Fatalf("%+v: morsel %d [%d,%d) does not tile from %d", tc, i, mo.Start, mo.End, covered)
			}
			if mo.Start%tc.align != 0 {
				t.Errorf("%+v: morsel %d starts off-alignment at %d", tc, i, mo.Start)
			}
			covered = mo.End
		}
		if covered != tc.rows {
			t.Fatalf("%+v: morsels cover %d of %d rows", tc, covered, tc.rows)
		}
		if tc.rows > tc.align*tc.threads && len(ms)%tc.threads != 0 {
			t.Errorf("%+v: %d morsels do not split evenly over %d workers", tc, len(ms), tc.threads)
		}
	}
}

// Strided is the one fleet every scan shares: each morsel is visited
// exactly once, by worker i mod T, in ascending order per worker — for
// morsel counts below, equal to and above the worker count — a false
// return from the step stops that worker alone, and a worker's panic
// resurfaces on the caller after the fleet drains.
func TestStridedVisitsEachMorselOnceOnItsWorker(t *testing.T) {
	for _, threads := range []int{1, 2, 3} {
		for _, count := range []int{0, threads - 1, threads, threads + 1, 3*threads + 2} {
			if count < 0 {
				continue
			}
			morsels := make([]Morsel, count)
			for i := range morsels {
				morsels[i] = Morsel{Start: i * 10, End: i*10 + 10}
			}
			// seen[w] is written by worker w's goroutine only.
			seen := make([][]int, threads)
			Strided(threads, morsels, func(w int, m Morsel) bool {
				seen[w] = append(seen[w], m.Start/10)
				return true
			})
			visits := make([]int, count)
			for w, idx := range seen {
				for k, i := range idx {
					visits[i]++
					if i != w+k*threads {
						t.Errorf("T=%d n=%d: worker %d's visit %d was morsel %d, want %d", threads, count, w, k, i, w+k*threads)
					}
				}
			}
			for i, n := range visits {
				if n != 1 {
					t.Errorf("T=%d n=%d: morsel %d visited %d times", threads, count, i, n)
				}
			}
		}
	}

	morsels := make([]Morsel, 9)
	ran := make([]int, 3)
	Strided(3, morsels, func(w int, _ Morsel) bool {
		ran[w]++
		return w != 1 // worker 1 gives up after its first morsel
	})
	if ran[0] != 3 || ran[1] != 1 || ran[2] != 3 {
		t.Errorf("morsels run per worker = %v, want [3 1 3]", ran)
	}

	for _, threads := range []int{1, 3} {
		func() {
			defer func() {
				if r := recover(); r != "morsel boom" {
					t.Errorf("T=%d: recovered %v on the caller, want the worker's panic", threads, r)
				}
			}()
			Strided(threads, morsels, func(w int, _ Morsel) bool {
				if w == threads-1 {
					panic("morsel boom")
				}
				return true
			})
			t.Errorf("T=%d: Strided returned past a panicking worker", threads)
		}()
	}
}
