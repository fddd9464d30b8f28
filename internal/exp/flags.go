package exp

import (
	"flag"

	"fluxtrack/internal/fault"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
)

// TrackerFlags holds the tracker-tuning flags the command-line tools share:
// the coarse prestage (-coarse, -coarsek, -coarsegrid), the robust-fit
// defense (-robust) and the Byzantine liar fraction (-liars). Bind them with
// BindTrackerFlags and read them after parsing with Settings.
type TrackerFlags struct {
	coarse             bool
	coarseK, coarseRes int
	robust             string
	liars              float64
}

// BindTrackerFlags registers the shared tracker flags on fs.
func BindTrackerFlags(fs *flag.FlagSet) *TrackerFlags {
	tf := &TrackerFlags{}
	fs.BoolVar(&tf.coarse, "coarse", false, "shortlist candidates through the coarse-to-fine fingerprint search")
	fs.IntVar(&tf.coarseK, "coarsek", 0, "coarse shortlist size per user (0 = default 64; implies -coarse)")
	fs.IntVar(&tf.coarseRes, "coarsegrid", 0, "fingerprint grid resolution per axis (0 = default 24; implies -coarse)")
	fs.StringVar(&tf.robust, "robust", "", "robust-fit defense: off, huber, loso, or both")
	fs.Float64Var(&tf.liars, "liars", 0, "fraction of Byzantine sensors (half inflate, a quarter deflate, a quarter replay)")
	return tf
}

// TrackerSettings is what the shared tracker flags resolve to; unset flags
// leave every field zero (exact search, undefended fit, honest sensors).
// Coarse is enabled, defaults filled in, when any coarse flag is set;
// Adversary is LiarMix(Liars).
type TrackerSettings struct {
	Coarse    fingerprint.CoarseConfig
	Robust    fit.RobustConfig
	Liars     float64
	Adversary fault.AdversaryConfig
}

// Settings validates the parsed flags and returns the configs they select.
// An unknown -robust mode or a -liars fraction outside [0, 1] is an error.
func (tf *TrackerFlags) Settings() (TrackerSettings, error) {
	mode, err := fit.ParseRobustMode(tf.robust)
	if err != nil {
		return TrackerSettings{}, err
	}
	s := TrackerSettings{
		Robust:    fit.RobustConfig{Mode: mode},
		Liars:     tf.liars,
		Adversary: LiarMix(tf.liars),
	}
	if err := s.Adversary.Validate(); err != nil {
		return TrackerSettings{}, err
	}
	if tf.coarse || tf.coarseK > 0 || tf.coarseRes > 0 {
		s.Coarse = fingerprint.CoarseConfig{Enabled: true, TopK: tf.coarseK, GridRes: tf.coarseRes}.WithDefaults()
	}
	return s, nil
}
