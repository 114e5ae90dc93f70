package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadAssignment(t *testing.T) {
	tests := []struct {
		name    string
		csv     string
		want    []int
		wantErr string
	}{
		{"valid", "area,region\n0,0\n1,-1\n", []int{0, -1}, ""},
		{"one column", "area\n0\n1\n", nil, "row 1: 1 field(s)"},
		{"non-integer region", "area,region\n0,0\n1,x\n", nil, `row 2: bad region "x"`},
		{"wrong row count", "area,region\n0,0\n", nil, "1 rows for 2 areas"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "assign.csv")
			if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := readAssignment(path, 2)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("assignment = %v, want %v", got, tc.want)
			}
		})
	}
}
