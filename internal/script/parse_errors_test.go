package script

import "testing"

// TestParseErrorMessages pins the exact error text of every Parse
// rejection path. Hand-written scenario files get these strings verbatim;
// changing one is an interface change and should fail a test, not slip
// through.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"unknown top-level field",
			`{"nope":1}`,
			`script: bad JSON: json: unknown field "nope"`,
		},
		{
			// A concatenated file must not silently run its first half.
			"two concatenated scripts",
			`{"events":[{"at":1,"op":"kill"}]} {"events":[{"at":-5,"op":"boom"}]}`,
			`script: bad JSON: trailing data after the script object`,
		},
		{
			"trailing garbage",
			`{"events":[{"at":1,"op":"kill"}]} x`,
			`script: bad JSON: invalid character 'x' looking for beginning of value`,
		},
		{
			"unknown event field",
			`{"events":[{"at":10,"op":"kill","frobnicate":1}]}`,
			`script: bad JSON: json: unknown field "frobnicate"`,
		},
		{
			"unknown op",
			`{"events":[{"at":10,"op":"explode"}]}`,
			`script: unknown op "explode" at epoch 10`,
		},
		{
			"negative epoch",
			`{"events":[{"at":-3,"op":"kill"}]}`,
			`script: event "kill" at negative epoch -3`,
		},
		{
			"events out of order",
			`{"events":[{"at":20,"op":"kill"},{"at":10,"op":"kill"}]}`,
			`script: events not ordered by epoch at index 1 (10 after 20)`,
		},
		{
			"cascade without count",
			`{"events":[{"at":5,"op":"cascade"}]}`,
			`script: cascade at 5: count 0 < 1`,
		},
		{
			"cascade negative spacing",
			`{"events":[{"at":5,"op":"cascade","count":2,"spacing":-1}]}`,
			`script: cascade at 5: negative spacing -1`,
		},
		{
			// Expand would append two billion kills.
			"cascade count over the cap",
			`{"events":[{"at":5,"op":"cascade","count":2000000000}]}`,
			`script: cascade at 5: count 2000000000 over the 1048576 cap`,
		},
		{
			"cascades over the cap in total",
			`{"events":[{"at":5,"op":"cascade","count":1048576},{"at":6,"op":"cascade","count":1}]}`,
			`script: cascades at index 1 expand to over 1048576 kills`,
		},
		{
			// 5 + 2·2^62 wraps to a negative epoch.
			"cascade last epoch overflows",
			`{"events":[{"at":5,"op":"cascade","count":3,"spacing":4611686018427387904}]}`,
			`script: cascade at 5: last kill's epoch overflows int64`,
		},
		{
			"cascade last epoch one past int64",
			`{"events":[{"at":1,"op":"cascade","count":2,"spacing":9223372036854775807}]}`,
			`script: cascade at 1: last kill's epoch overflows int64`,
		},
		{
			"shift with empty target set",
			`{"events":[{"at":5,"op":"shift","delta":2}]}`,
			`script: shift at 5: unknown sensor type ""`,
		},
		{
			"shift unknown sensor type",
			`{"events":[{"at":5,"op":"shift","type":"pressure","delta":2}]}`,
			`script: shift at 5: unknown sensor type "pressure"`,
		},
		{
			"shift zero delta",
			`{"events":[{"at":5,"op":"shift","type":"light"}]}`,
			`script: shift at 5: zero delta`,
		},
		{
			"drift unknown sensor type",
			`{"events":[{"at":5,"op":"drift","type":"wind","scale":2}]}`,
			`script: drift at 5: unknown sensor type "wind"`,
		},
		{
			"drift non-positive scale",
			`{"events":[{"at":5,"op":"drift","scale":0}]}`,
			`script: drift at 5: scale 0 <= 0`,
		},
		{
			"burst without interval",
			`{"events":[{"at":5,"op":"burst"}]}`,
			`script: burst at 5: interval 0 < 1`,
		},
		{
			"coverage out of range",
			`{"events":[{"at":5,"op":"coverage","coverage":1.5}]}`,
			`script: coverage at 5: target 1.5 outside (0,1]`,
		},
		{
			"retune non-positive delta",
			`{"events":[{"at":5,"op":"retune"}]}`,
			`script: retune at 5: delta 0 <= 0`,
		},
		{
			"negative workload interval",
			`{"workload":{"interval":-4}}`,
			`script: negative workload interval -4`,
		},
		{
			"workload coverage out of range",
			`{"workload":{"coverage":1.5}}`,
			`script: workload coverage 1.5 outside [0,1]`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if err.Error() != tc.want {
				t.Fatalf("error message drifted:\n got %q\nwant %q", err, tc.want)
			}
		})
	}
}

// TestParseAcceptsTrailingWhitespace: the trailing-data check must not
// reject the newline an editor leaves at the end of a script file.
func TestParseAcceptsTrailingWhitespace(t *testing.T) {
	s, err := Parse([]byte("{\"events\":[{\"at\":1,\"op\":\"kill\"}]}\n \t\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 {
		t.Fatalf("parsed %d events, want 1", len(s.Events))
	}
}

// TestDuplicateEpochEventsLegal: several events at one epoch are valid
// (ties keep document order through Validate and the stable Expand sort),
// so chaos scripts can stack a kill and a burst on the same epoch.
func TestDuplicateEpochEventsLegal(t *testing.T) {
	s, err := Parse([]byte(`{"events":[
		{"at":10,"op":"kill"},
		{"at":10,"op":"burst","interval":5},
		{"at":10,"op":"retune","delta":2}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Op{OpKill, OpBurst, OpRetune}
	if len(expanded) != len(wantOps) {
		t.Fatalf("expanded %d events, want %d", len(expanded), len(wantOps))
	}
	for i, e := range expanded {
		if e.At != 10 || e.Op != wantOps[i] {
			t.Fatalf("tie order not preserved at %d: got %q@%d want %q@10", i, e.Op, e.At, wantOps[i])
		}
	}
}

// TestCascadeAtItsBounds: a cascade exactly at the count cap, or whose
// last kill lands exactly on the largest epoch, is valid.
func TestCascadeAtItsBounds(t *testing.T) {
	for _, doc := range []string{
		`{"events":[{"at":5,"op":"cascade","count":1048576}]}`,
		`{"events":[{"at":1,"op":"cascade","count":2,"spacing":9223372036854775806}]}`,
		`{"events":[{"at":9223372036854775807,"op":"cascade","count":1048576}]}`,
	} {
		if _, err := Parse([]byte(doc)); err != nil {
			t.Errorf("Parse rejected %s: %v", doc, err)
		}
	}
}
