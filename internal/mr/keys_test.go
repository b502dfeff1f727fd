package mr

import (
	"strconv"
	"testing"
)

func TestIntKeyIndexRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 12, 101} {
		for i, key := range IntKeys("c", n) {
			got, err := IntKeyIndex("c", key, n)
			if err != nil || got != i {
				t.Fatalf("IntKeyIndex(%q, n=%d) = %d, %v; want %d", key, n, got, err, i)
			}
		}
	}
}

func TestIntKeyIndexRejects(t *testing.T) {
	const n = 5
	for _, key := range []string{"c", "cx", "c-1", "c" + strconv.Itoa(n), "c99", "c+1", "c01", "c1x", "d1", "", "1"} {
		if i, err := IntKeyIndex("c", key, n); err == nil {
			t.Errorf("IntKeyIndex(%q, n=%d) = %d, want an error", key, n, i)
		}
	}
	if _, err := IntKeyIndex("ai", "c1", n); err == nil {
		t.Error("a key with another prefix must be rejected")
	}
}
