package model_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transer/internal/core"
	"transer/internal/model"
)

// legacySELModeFingerprint is the fingerprint the exporter that wrote
// testdata/legacy-sel-mode.json computed for it.
const legacySELModeFingerprint = "9b789ae8fd5886709efa42cf50f2624ea8476cecd6e6373228d49526cb8d5ccf"

// TestTrainingSpecLegacySELMode: artifacts exported while the SEL
// engine was selectable carry "sel_mode":"exact" in their training
// spec. Such an artifact must decode, re-encode byte for byte and keep
// its recorded fingerprint, or the model repository would report valid
// catalog entries as corrupt. A freshly trained spec omits the field.
func TestTrainingSpecLegacySELMode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-sel-mode.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"sel_mode": "exact"`)) {
		t.Fatal("fixture lost its sel_mode field")
	}
	art, err := model.Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	again, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Errorf("re-encoded artifact differs from the legacy bytes:\n%s", again)
	}
	fp, err := art.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != legacySELModeFingerprint {
		t.Errorf("fingerprint %s, recorded %s", fp, legacySELModeFingerprint)
	}

	fresh, err := json.Marshal(model.TrainingFromConfig(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(fresh), "sel_mode") {
		t.Errorf("fresh spec must omit sel_mode: %s", fresh)
	}
}
