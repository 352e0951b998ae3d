package baselines

import (
	"reflect"
	"testing"

	"rads/internal/cluster"
	"rads/internal/rads"
)

// TestGobTypesHoldNoMap walks every gob-registered control-plane
// message and fails on any map field, however deeply nested: gob sizes
// a decoded map by the count the bytes claim, before a single entry
// has arrived, so a few corrupt bytes can demand gigabytes.
func TestGobTypesHoldNoMap(t *testing.T) {
	for _, v := range []any{
		&rads.RunQueryRequest{}, &rads.RunQueryResponse{},
		&rads.StatsPullRequest{}, &rads.StatsPullResponse{},
		&cluster.ShuffleRequest{}, &cluster.ShuffleResponse{},
	} {
		typ := reflect.TypeOf(v)
		if path := gobMap(typ, typ.String(), map[reflect.Type]bool{}); path != "" {
			t.Errorf("%s", path)
		}
	}
}

// gobMap returns the path to the first map gob would decode under typ,
// or "" when there is none.
func gobMap(typ reflect.Type, path string, seen map[reflect.Type]bool) string {
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if seen[typ] {
		return ""
	}
	seen[typ] = true
	switch typ.Kind() {
	case reflect.Map:
		return path + " is a map (" + typ.String() + ")"
	case reflect.Slice, reflect.Array:
		return gobMap(typ.Elem(), path+"[]", seen)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				if p := gobMap(f.Type, path+"."+f.Name, seen); p != "" {
					return p
				}
			}
		}
	}
	return ""
}
