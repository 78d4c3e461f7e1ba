package repro

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cbm"
)

// buildTools compiles the command-line tools once per test binary.
var (
	toolsOnce sync.Once
	toolsDir  string
	toolsErr  error
)

func tools(t *testing.T) string {
	t.Helper()
	toolsOnce.Do(func() {
		toolsDir, toolsErr = os.MkdirTemp("", "cbm-tools-")
		if toolsErr != nil {
			return
		}
		for _, tool := range []string{"cbmbench", "cbmcompress", "gcninfer", "graphgen"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(toolsDir, tool), "./cmd/"+tool)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				toolsErr = err
				t.Logf("building %s: %s", tool, out)
				return
			}
		}
	})
	if toolsErr != nil {
		t.Fatalf("building tools: %v", toolsErr)
	}
	return toolsDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(tools(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestIntegrationGraphgenToCompressToDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	dir := t.TempDir()
	edges := filepath.Join(dir, "g.edges")
	saved := filepath.Join(dir, "g.cbm")

	// 1. generate a compressible graph
	out := runTool(t, "graphgen", "-model", "sbm", "-n", "600", "-group", "30",
		"-p", "0.85", "-noise", "0.5", "-seed", "3", "-o", edges)
	if !strings.Contains(out, "600 nodes") {
		t.Fatalf("graphgen output: %s", out)
	}

	// 2. compress it from the edge list and save the container
	out = runTool(t, "cbmcompress", "-in", edges, "-alpha", "2", "-save", saved)
	if !strings.Contains(out, "compression ratio") {
		t.Fatalf("cbmcompress output: %s", out)
	}

	// 3. decode the container in-process and validate
	f, err := os.Open(saved)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := cbm.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 600 {
		t.Fatalf("decoded %d rows, want 600", m.Rows())
	}
	back := m.ToCSR()
	if back.NNZ() == 0 || !back.IsBinary() {
		t.Fatal("decoded matrix corrupt")
	}
}

func TestIntegrationCbmbenchSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	out := runTool(t, "cbmbench", "-exp", "table1,table5", "-datasets", "cora",
		"-cols", "8", "-reps", "1")
	for _, want := range []string{"Table I", "Table V", "cora", "Spearman"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cbmbench output missing %q:\n%s", want, out)
		}
	}
}

func TestIntegrationCbmbenchListAndErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	out := runTool(t, "cbmbench", "-list")
	if !strings.Contains(out, "cora") || !strings.Contains(out, "ogbn-proteins") {
		t.Fatalf("-list output: %s", out)
	}
	// invalid experiment must fail
	cmd := exec.Command(filepath.Join(tools(t), "cbmbench"), "-exp", "bogus")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bogus experiment accepted: %s", out)
	}
	// invalid dataset must fail
	cmd = exec.Command(filepath.Join(tools(t), "cbmbench"), "-exp", "table1", "-datasets", "nope")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bogus dataset accepted: %s", out)
	}
}

func TestIntegrationGcninfer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	out := runTool(t, "gcninfer", "-dataset", "cora", "-cols", "16", "-reps", "1", "-alpha", "2")
	for _, want := range []string{"inference CSR", "inference CBM", "speedup", "max rel diff"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gcninfer output missing %q:\n%s", want, out)
		}
	}
}

func TestIntegrationCbmcompressDatasetMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	out := runTool(t, "cbmcompress", "-dataset", "cora", "-alpha", "0")
	if !strings.Contains(out, "deltas") || !strings.Contains(out, "S_CBM") {
		t.Fatalf("cbmcompress output:\n%s", out)
	}
	// missing input must fail
	cmd := exec.Command(filepath.Join(tools(t), "cbmcompress"))
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("no input accepted: %s", out)
	}
}

func TestIntegrationMatrixMarketFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	dir := t.TempDir()
	mtx := filepath.Join(dir, "g.mtx")
	runTool(t, "graphgen", "-model", "sbm", "-n", "300", "-group", "20",
		"-p", "0.8", "-seed", "5", "-format", "mtx", "-o", mtx)
	out := runTool(t, "cbmcompress", "-in", mtx, "-alpha", "0")
	if !strings.Contains(out, "compression ratio") {
		t.Fatalf("cbmcompress on mtx: %s", out)
	}
}

func TestIntegrationQuickstartExample(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an example binary")
	}
	cmd := exec.Command("go", "run", "./examples/quickstart")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart failed: %v\n%s", err, out)
	}
	for _, want := range []string{"compression tree", "Property 1", "max abs diff vs CSR: 0"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

func TestIntegrationCbmbenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLI tools")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "r.json")
	runTool(t, "cbmbench", "-exp", "table1", "-datasets", "cora", "-json", jsonPath)
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string][]map[string]interface{}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed["table1"]) != 1 || parsed["table1"][0]["Name"] != "cora" {
		t.Fatalf("unexpected JSON contents: %s", data)
	}
}
