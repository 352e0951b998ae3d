package baselines

import (
	"encoding/gob"
	"reflect"
	"testing"

	"rads/internal/cluster"
	"rads/internal/pattern"
	"rads/internal/rads"
)

// TestGobTypesHoldNoMap walks every gob-registered control-plane
// message and artifact type and fails on any map field, however deeply
// nested: gob sizes a decoded map by the count the bytes claim, before
// a single entry has arrived, so a few corrupt bytes can demand
// gigabytes. A type that encodes itself (gob.GobEncoder) is checked
// through the type it sends.
func TestGobTypesHoldNoMap(t *testing.T) {
	sends := map[reflect.Type]reflect.Type{
		reflect.TypeOf(indexArtifact{}):   reflect.TypeOf(indexWire{}),
		reflect.TypeOf(pattern.Pattern{}): reflect.TypeOf(""), // its text form
	}
	for _, v := range []any{
		&rads.RunQueryRequest{}, &rads.RunQueryResponse{},
		&rads.StatsPullRequest{}, &rads.StatsPullResponse{},
		&cluster.ShuffleRequest{}, &cluster.ShuffleResponse{},
		rads.PlanArtifact{}, indexArtifact{},
	} {
		typ := reflect.TypeOf(v)
		if path := gobMap(typ, typ.String(), sends, map[reflect.Type]bool{}); path != "" {
			t.Errorf("%s", path)
		}
	}
}

// gobMap returns the path to the first map gob would decode under typ,
// or "" when there is none.
func gobMap(typ reflect.Type, path string, sends map[reflect.Type]reflect.Type, seen map[reflect.Type]bool) string {
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if seen[typ] {
		return ""
	}
	seen[typ] = true
	if wire, ok := sends[typ]; ok {
		return gobMap(wire, path+" (sent as "+wire.String()+")", sends, seen)
	}
	if reflect.PointerTo(typ).Implements(reflect.TypeFor[gob.GobDecoder]()) {
		return path + " encodes itself: list the type it sends"
	}
	switch typ.Kind() {
	case reflect.Map:
		return path + " is a map (" + typ.String() + ")"
	case reflect.Slice, reflect.Array:
		return gobMap(typ.Elem(), path+"[]", sends, seen)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				if p := gobMap(f.Type, path+"."+f.Name, sends, seen); p != "" {
					return p
				}
			}
		}
	}
	return ""
}
