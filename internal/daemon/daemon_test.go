package daemon

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseParticipants(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []Participant
		wantErr string
	}{
		{
			in: "Doctor=s1@127.0.0.1:7001, Patient=s2@127.0.0.1:7002,",
			want: []Participant{
				{Name: "Doctor", Seed: "s1", Addr: "127.0.0.1:7001"},
				{Name: "Patient", Seed: "s2", Addr: "127.0.0.1:7002"},
			},
		},
		{
			// A light client lists seeds only; a seed may hold '@'.
			in: "Doctor=s1,Patient=a@b@host:1",
			want: []Participant{
				{Name: "Doctor", Seed: "s1"},
				{Name: "Patient", Seed: "a@b", Addr: "host:1"},
			},
		},
		{in: "Doctor=s1@h:1,Doctor=s9@h:2", wantErr: "appears twice"},
		{in: "=s1@h:1,Patient=s2@h:2", wantErr: "empty name or seed"},
		{in: "Doctor=@h:1,Patient=s2@h:2", wantErr: "empty name or seed"},
		{in: "Doctor@h:1,Patient=s2@h:2", wantErr: "want name=seed"},
		{in: "Doctor=s1@h:1", wantErr: "at least two"},
		{in: " , ", wantErr: "at least two"},
	} {
		got, err := ParseParticipants(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseParticipants(%q) = %+v, %v; want error containing %q", tc.in, got, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseParticipants(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

// TestOpenRejectsUnreachableParticipant: a daemon must be among the
// participants, and every participant needs an address the others can
// dial: an authority without one stalls the chain at its turn. The checks
// run before Open binds anything.
func TestOpenRejectsUnreachableParticipant(t *testing.T) {
	for _, tc := range []struct {
		name string
		ps   []Participant
		want string
	}{
		{"Doctor", []Participant{{"Doctor", "s1", ""}, {"Patient", "s2", "127.0.0.1:1"}}, "Doctor has no address"},
		{"Doctor", []Participant{{"Doctor", "s1", "127.0.0.1:0"}, {"Patient", "s2", ""}}, "Patient has no address"},
		{"Researcher", []Participant{{"Doctor", "s1", "127.0.0.1:1"}, {"Patient", "s2", "127.0.0.1:2"}}, "not among"},
	} {
		_, err := Open(Config{Name: tc.name, Participants: tc.ps, Listen: "127.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open(%s, %+v) error = %v, want %q", tc.name, tc.ps, err, tc.want)
		}
	}
}
