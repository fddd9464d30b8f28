package exp

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"fluxtrack/internal/fingerprint"
)

// TestTrackerFlags pins the shared tracker-flag binder: what each flag
// resolves to, which values are refused, and that no flags mean the zero
// configs.
func TestTrackerFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    TrackerSettings
		wantErr bool
	}{
		{name: "no flags", args: nil, want: TrackerSettings{}},
		{
			name: "coarsek implies coarse",
			args: []string{"-coarsek", "128"},
			want: TrackerSettings{Coarse: fingerprint.CoarseConfig{
				Enabled: true, TopK: 128, GridRes: fingerprint.DefaultGridRes,
			}},
		},
		{
			name: "liars",
			args: []string{"-liars", "0.2"},
			want: TrackerSettings{Liars: 0.2, Adversary: LiarMix(0.2)},
		},
		{name: "unknown robust mode", args: []string{"-robust", "bogus"}, wantErr: true},
		{name: "liar fraction above one", args: []string{"-liars", "1.5"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			tf := BindTrackerFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := tf.Settings()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted %v: %+v", tc.args, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}
