package experiments

import (
	"strings"
	"testing"

	"bpomdp/internal/controller"
)

func TestTable1SmallCampaignShape(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN campaign in -short mode")
	}
	res, err := Table1(Table1Config{
		Episodes:   60,
		Seed:       1,
		Algorithms: []string{AlgoMostLikely, AlgoHeuristic1, AlgoBounded, AlgoOracle},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		t.Logf("%s: cost/fault %.2f over %d injections", row.Name, row.Cost.Mean(), row.Episodes)
		// The paper's §5 observation: in all injections, no controller ever
		// quit without recovering the system.
		if row.Recovered != row.Episodes {
			t.Errorf("%s recovered %d/%d", row.Name, row.Recovered, row.Episodes)
		}
		if row.Cost.Mean() <= 0 {
			t.Errorf("%s cost = %v", row.Name, row.Cost.Mean())
		}
	}
	oracle := res.Row(AlgoOracle)
	bounded := res.Row(AlgoBounded)
	ml := res.Row(AlgoMostLikely)
	if oracle == nil || bounded == nil || ml == nil {
		t.Fatal("missing rows")
	}
	// Table 1 shape: oracle ≤ bounded ≤ most-likely on cost; oracle uses
	// exactly one action; bounded uses fewer actions than most-likely.
	if oracle.Cost.Mean() > bounded.Cost.Mean() {
		t.Errorf("oracle cost %v > bounded %v", oracle.Cost.Mean(), bounded.Cost.Mean())
	}
	if bounded.Cost.Mean() > ml.Cost.Mean() {
		t.Errorf("bounded cost %v > most-likely %v", bounded.Cost.Mean(), ml.Cost.Mean())
	}
	if oracle.Actions.Mean() != 1 {
		t.Errorf("oracle actions = %v", oracle.Actions.Mean())
	}
	if bounded.Actions.Mean() >= ml.Actions.Mean() {
		t.Errorf("bounded actions %v >= most-likely %v", bounded.Actions.Mean(), ml.Actions.Mean())
	}

	out := res.Render()
	if !strings.Contains(out, "Algorithm") || !strings.Contains(out, AlgoBounded) {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestTable1UnknownAlgorithm(t *testing.T) {
	if _, err := Table1(Table1Config{Episodes: 1, Algorithms: []string{"alphago"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestTable1RandomAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN campaign in -short mode")
	}
	res, err := Table1(Table1Config{
		Episodes:   10,
		Seed:       3,
		MaxSteps:   20000,
		Algorithms: []string{AlgoRandom},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Episodes != 10 {
		t.Errorf("episodes = %d", res.Rows[0].Episodes)
	}
}

func TestFig5SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("EMN bootstrap in -short mode")
	}
	res, err := Fig5(Fig5Config{Iterations: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Random) != 12 || len(res.Average) != 12 {
		t.Fatalf("series lengths %d/%d", len(res.Random), len(res.Average))
	}
	check := func(name string, series []controller.IterationStats) {
		prev := -1e18
		for i, st := range series {
			if st.BoundAtUniform < prev-1e-9 {
				t.Errorf("%s iteration %d: bound decreased", name, i+1)
			}
			prev = st.BoundAtUniform
			if UpperBoundOnCost(st.BoundAtUniform) < 0 {
				t.Errorf("%s iteration %d: negative upper bound on cost", name, i+1)
			}
			if st.Vectors < 1 {
				t.Errorf("%s iteration %d: no vectors", name, i+1)
			}
		}
	}
	check("random", res.Random)
	check("average", res.Average)

	// Figure 5(a)'s headline: the Average variant ends tighter than Random.
	last := len(res.Random) - 1
	if res.Average[last].BoundAtUniform < res.Random[last].BoundAtUniform {
		t.Errorf("average final bound %v looser than random %v",
			res.Average[last].BoundAtUniform, res.Random[last].BoundAtUniform)
	}

	csv := res.CSV()
	if !strings.HasPrefix(csv, "iteration,") || strings.Count(csv, "\n") != 13 {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	if out := res.Render(); !strings.Contains(out, "Vectors(average)") {
		t.Errorf("render malformed:\n%s", out)
	}
}
