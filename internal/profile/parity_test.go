package profile_test

import (
	"reflect"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/profile"
)

// assertReportsIdentical compares every measured field of two reports for
// byte-identical equality (the Graph pointer is shared, so DeepEqual over
// the whole struct would follow unexported graph internals instead).
func assertReportsIdentical(t *testing.T, legacy, compiled *profile.Report) {
	t.Helper()
	if legacy.Seconds != compiled.Seconds {
		t.Fatalf("Seconds: legacy %v compiled %v", legacy.Seconds, compiled.Seconds)
	}
	if !reflect.DeepEqual(legacy.OpTotal, compiled.OpTotal) {
		t.Fatal("OpTotal diverges between engines")
	}
	if !reflect.DeepEqual(legacy.OpInvocations, compiled.OpInvocations) {
		t.Fatalf("OpInvocations diverges: legacy %d entries, compiled %d entries",
			len(legacy.OpInvocations), len(compiled.OpInvocations))
	}
	if !reflect.DeepEqual(legacy.OpPeak, compiled.OpPeak) {
		t.Fatal("OpPeak diverges between engines")
	}
	if !reflect.DeepEqual(legacy.EdgeBytes, compiled.EdgeBytes) {
		t.Fatalf("EdgeBytes diverges: legacy %d entries, compiled %d entries",
			len(legacy.EdgeBytes), len(compiled.EdgeBytes))
	}
	if !reflect.DeepEqual(legacy.EdgeElems, compiled.EdgeElems) {
		t.Fatal("EdgeElems diverges between engines")
	}
	if !reflect.DeepEqual(legacy.EdgePeak, compiled.EdgePeak) {
		t.Fatalf("EdgePeak diverges: legacy %d entries, compiled %d entries",
			len(legacy.EdgePeak), len(compiled.EdgePeak))
	}
}

func TestCompiledProfileParitySpeech(t *testing.T) {
	app := speech.New()
	inputs := []profile.Input{app.SampleTrace(2009, 3.0)}
	legacy, err := profile.RunReference(app.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := profile.Run(app.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, legacy, compiled)
}

func TestCompiledProfileParityEEG(t *testing.T) {
	// 4 channels keeps the test fast while still exercising the wavelet
	// diamonds, multi-port zips and the cross-channel join.
	app := eeg.NewWithChannels(4)
	inputs := app.SampleTrace(7, 8)
	legacy, err := profile.RunReference(app.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := profile.Run(app.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, legacy, compiled)
}

func TestCompiledProfileParityFullEEG(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-channel app in -short mode")
	}
	app := eeg.New()
	inputs := app.SampleTrace(2009, 4)
	legacy, err := profile.RunReference(app.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := profile.Run(app.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, legacy, compiled)
}
