package mr

import (
	"fmt"
	"strconv"
	"strings"
)

// IntKeys returns the key table [prefix+"0", prefix+"1", ..., prefix+(n-1)]
// — the precomputed form of the fmt.Sprintf("%s%d", prefix, i) keys the
// pipeline's per-cluster and per-attribute jobs emit. Building the strings
// once per task (typically in a mapper's Setup) keeps per-emission key
// construction off the hot path, where the hotpath analyzer flags it.
func IntKeys(prefix string, n int) []string {
	keys := make([]string, n)
	buf := make([]byte, 0, len(prefix)+20)
	for i := range keys {
		buf = append(buf[:0], prefix...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		keys[i] = string(buf)
	}
	return keys
}

// IntKeyIndex is the range-checked inverse of IntKeys: it returns i for the
// key prefix+strconv.Itoa(i) with 0 ≤ i < n, and an error for any other key
// (wrong prefix, non-canonical or missing digits, or an index out of range).
func IntKeyIndex(prefix, key string, n int) (int, error) {
	digits, ok := strings.CutPrefix(key, prefix)
	if ok {
		i, err := strconv.Atoi(digits)
		if err == nil && i >= 0 && i < n && strconv.Itoa(i) == digits {
			return i, nil
		}
	}
	return 0, fmt.Errorf("mr: key %q is not %s<0..%d>", key, prefix, n-1)
}
