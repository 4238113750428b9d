package main

import (
	"reflect"
	"testing"
	"time"

	"webcluster/internal/journal"
)

func TestParseBudgets(t *testing.T) {
	for _, tc := range []struct {
		flag string
		want []journal.Budget
		bad  bool
	}{
		{flag: "", want: nil},
		{flag: "html:0.05:250ms", want: []journal.Budget{{Class: "html", MaxErrorRate: 0.05, MaxP99Ns: int64(250 * time.Millisecond)}}},
		{flag: "html::250ms,cgi:0.1:", want: []journal.Budget{
			{Class: "html", MaxP99Ns: int64(250 * time.Millisecond)},
			{Class: "cgi", MaxErrorRate: 0.1},
		}},
		{flag: ":0.05:250ms", bad: true},
		{flag: "html:0.05", bad: true},
		{flag: "html:lots:250ms", bad: true},
		{flag: "html:0.05:soon", bad: true},
	} {
		got, err := parseBudgets(tc.flag)
		if tc.bad {
			if err == nil {
				t.Errorf("parseBudgets(%q) = %+v, want an error", tc.flag, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBudgets(%q) = %+v, %v; want %+v", tc.flag, got, err, tc.want)
		}
	}
}
