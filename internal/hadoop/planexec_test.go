package hadoop

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/blast"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/graph"
	"repro/internal/powerlyra"
)

const blastWorkflowXML = `
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="ouputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.ouputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>`

const hybridWorkflowXML = `
<workflow id="hybrid_cut" name="Hybrid-cut">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
    <param name="num_partitions" type="integer"/>
    <param name="threshold" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="Group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/tmp/group" format="pack"/>
      <param name="key" type="KeyId" value="vertex_b"/>
      <addon operator="count" key="vertex_b" attr="indegree"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/high_degree,/tmp/split/low_degree"
             format="unpack,orig"/>
      <param name="key" type="KeyId" value="$group.$indegree"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=,$threshold},{&lt;,$threshold}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="policy" type="DistrPolicy" value="graphVertexCut"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>`

func compilePlan(t *testing.T, workflowXML string, schema *dataformat.Schema, args map[string]string) *core.Plan {
	t.Helper()
	wf, err := config.ParseWorkflow([]byte(workflowXML))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Compile(wf, map[string]*dataformat.Schema{schema.ID: schema}, args)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestBlastPlanOnHadoopMatchesReference runs the Fig. 8 workflow on the
// Hadoop backend and requires exactly the partitions muBLASTP's own
// partitioner produces — the cross-backend half of the §IV correctness
// claim ("map to the parallel implementations with MPI and MapReduce").
func TestBlastPlanOnHadoopMatchesReference(t *testing.T) {
	const np = 8
	db := blast.Generate(blast.EnvNR(), 0.001, 5)
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "env_nr.db")
	if err := blast.WriteDB(db, dbPath); err != nil {
		t.Fatal(err)
	}
	plan := compilePlan(t, blastWorkflowXML, blast.Schema(), map[string]string{
		"input_path": dbPath, "output_path": dir, "num_partitions": "8",
	})
	res, err := ExecutePlan(plan, dbPath, filepath.Join(dir, "work"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != np {
		t.Fatalf("got %d partitions", len(res.Partitions))
	}
	ref := blast.CyclicPartition(db.Entries, np)
	for p := range ref {
		recs, err := core.RowsToRecords(plan.InputSchema, res.Partitions[p])
		if err != nil {
			t.Fatal(err)
		}
		entries, err := blast.FromRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		if !ref[p].SameAsRows(entries) {
			t.Fatalf("partition %d differs from muBLASTP reference", p)
		}
	}
	// Every job recorded counters (ingest + sort + distribute).
	if len(res.JobCounters) != 3 {
		t.Fatalf("got %d job counters", len(res.JobCounters))
	}
}

// TestBackendsAgreeOnBlast runs the same plan on both backends (the MR-MPI
// cluster executor and the Hadoop engine) and requires identical
// partitions, for both index-based policies and for a partition count that
// does not divide the entry count (block's uneven boundaries).
func TestBackendsAgreeOnBlast(t *testing.T) {
	db := blast.Generate(blast.EnvNR(), 0.0008, 9)
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.bin")
	if err := blast.WriteDB(db, dbPath); err != nil {
		t.Fatal(err)
	}
	if len(db.Entries)%7 == 0 {
		t.Fatalf("%d entries: np=7 must not divide the entry count", len(db.Entries))
	}
	for _, policy := range []string{"roundRobin", "block"} {
		for _, np := range []int{6, 7} {
			t.Run(fmt.Sprintf("%s/np=%d", policy, np), func(t *testing.T) {
				wf := strings.Replace(blastWorkflowXML, `value="roundRobin"`, `value="`+policy+`"`, 1)
				plan := compilePlan(t, wf, blast.Schema(), map[string]string{
					"input_path": dbPath, "output_path": dir, "num_partitions": strconv.Itoa(np),
				})
				hres, err := ExecutePlan(plan, dbPath, filepath.Join(t.TempDir(), "work"), 3)
				if err != nil {
					t.Fatal(err)
				}
				cl := cluster.New(cluster.DefaultConfig(4))
				cres, err := core.Execute(cl, plan, core.Input{Path: dbPath})
				if err != nil {
					t.Fatal(err)
				}
				if len(hres.Partitions) != np || len(cres.Partitions) != np {
					t.Fatalf("partition counts: hadoop %d, cluster %d", len(hres.Partitions), len(cres.Partitions))
				}
				for p := 0; p < np; p++ {
					if !reflect.DeepEqual(hres.Partitions[p], cres.Partitions[p]) {
						t.Fatalf("partition %d differs between backends:\nhadoop: %v\ncluster: %v",
							p, hres.Partitions[p], cres.Partitions[p])
					}
				}
			})
		}
	}
}

// TestHybridPlanOnHadoopMatchesReference runs the Fig. 10 workflow on the
// Hadoop backend against PowerLyra's reference partitioner.
func TestHybridPlanOnHadoopMatchesReference(t *testing.T) {
	const np = 8
	g := graph.Generate(graph.Google(), 0.001, 7)
	dir := t.TempDir()
	gPath := filepath.Join(dir, "g.txt")
	if err := graph.WriteEdgeList(g, gPath); err != nil {
		t.Fatal(err)
	}
	plan := compilePlan(t, hybridWorkflowXML, graph.Schema(), map[string]string{
		"input_file": gPath, "output_path": dir,
		"num_partitions": "8", "threshold": "50",
	})
	res, err := ExecutePlan(plan, gPath, filepath.Join(dir, "work"), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := powerlyra.Partition(g, powerlyra.HybridCut, np, 50)
	if err != nil {
		t.Fatal(err)
	}
	refEdges := ref.PartitionEdges()
	for p := 0; p < np; p++ {
		got := map[[2]int64]int{}
		for _, r := range res.Partitions[p] {
			a, err := r.Values[0].AsInt()
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Values[1].AsInt()
			if err != nil {
				t.Fatal(err)
			}
			got[[2]int64{a, b}]++
		}
		want := map[[2]int64]int{}
		for _, e := range refEdges[p] {
			want[[2]int64{int64(e.Src), int64(e.Dst)}]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d edge multiset differs (%d vs %d edges)", p, len(got), len(want))
		}
	}
}

// TestSortJobGlobalOrder checks the total-order property of the Hadoop sort
// lowering: concatenating the distribute input (the sort output) in file
// order is globally sorted.
func TestSortJobGlobalOrder(t *testing.T) {
	db := blast.Generate(blast.NR(), 0.0001, 3)
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.bin")
	if err := blast.WriteDB(db, dbPath); err != nil {
		t.Fatal(err)
	}
	plan := compilePlan(t, blastWorkflowXML, blast.Schema(), map[string]string{
		"input_path": dbPath, "output_path": dir, "num_partitions": "1",
	})
	res, err := ExecutePlan(plan, dbPath, filepath.Join(dir, "work"), 5)
	if err != nil {
		t.Fatal(err)
	}
	// With one partition, the output is the full globally sorted database.
	rows := res.Partitions[0]
	if len(rows) != db.NumSequences() {
		t.Fatalf("lost rows: %d of %d", len(rows), db.NumSequences())
	}
	for i := 1; i < len(rows); i++ {
		a, _ := rows[i-1].Values[1].AsInt()
		b, _ := rows[i].Values[1].AsInt()
		if a > b {
			t.Fatalf("global order broken at %d: %d > %d", i, a, b)
		}
	}
}

func TestExecutePlanErrors(t *testing.T) {
	dir := t.TempDir()
	plan := compilePlan(t, blastWorkflowXML, blast.Schema(), map[string]string{
		"input_path": "/missing", "output_path": dir, "num_partitions": "2",
	})
	if _, err := ExecutePlan(plan, "/no/such/file", filepath.Join(dir, "w"), 2); err == nil {
		t.Error("missing input accepted")
	}
}
