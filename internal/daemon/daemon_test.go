package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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

// TestOpenLogsDataDirState: Open tells the three states a data dir can
// be in apart: new (nothing committed), cleanly stopped (checkpoint
// import) and a crash image (recovery).
func TestOpenLogsDataDirState(t *testing.T) {
	open := func(dataDir string) (*Daemon, string) {
		t.Helper()
		var mu sync.Mutex
		var log strings.Builder
		d, err := Open(Config{
			Name:         "Doctor",
			Participants: []Participant{{"Doctor", "s1", "127.0.0.1:0"}, {"Patient", "s2", "127.0.0.1:1"}},
			Listen:       "127.0.0.1:0",
			Network:      "data-dir-log",
			DataDir:      dataDir,
			Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				fmt.Fprintf(&log, format+"\n", args...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return d, log.String()
	}
	expect := func(log, want string) {
		t.Helper()
		for _, line := range []string{"new data dir", "clean shutdown", "recovering"} {
			if got := strings.Contains(log, line); got != (line == want) {
				t.Errorf("log mentions %q: %v, want only %q:\n%s", line, got, want, log)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "data")
	d, log := open(dir)
	expect(log, "new data dir")
	// A commit without the clean-shutdown mark, copied while the daemon
	// runs, is what a crash leaves behind.
	if err := d.Node.WriteCheckpoint(false); err != nil {
		t.Fatal(err)
	}
	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d, log = open(dir)
	expect(log, "clean shutdown")
	d.Close()
	d, log = open(crash)
	expect(log, "recovering")
	d.Close()
}
