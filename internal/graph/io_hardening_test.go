package graph

import (
	"strings"
	"testing"
)

// ReadEdgeList must reject malformed input with line-numbered errors
// instead of silently repairing it.
func TestReadEdgeListRejectsNegativeIDs(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0 1\n-1 2\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("negative id: err = %v, want line-2 error", err)
	}
}
