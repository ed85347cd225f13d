package mvolap_test

import (
	"fmt"
	"log"

	"mvolap"
)

// caseStudy builds the ICDE 2003 running example: the institution whose
// Organization dimension evolves across 2001-2003.
func caseStudy() *mvolap.Schema {
	s := mvolap.NewSchema("institution", mvolap.Measure{Name: "Amount", Agg: mvolap.Sum})
	org := mvolap.NewDimension("Org", "Org")
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	add := func(id mvolap.MVID, name, level string, valid mvolap.Interval) {
		must(org.AddVersion(&mvolap.MemberVersion{ID: id, Member: name, Name: name, Level: level, Valid: valid}))
	}
	add("sales", "Sales", "Division", mvolap.Since(mvolap.Year(2001)))
	add("rnd", "R&D", "Division", mvolap.Since(mvolap.Year(2001)))
	add("jones", "Dpt.Jones", "Department", mvolap.Between(mvolap.Year(2001), mvolap.YM(2002, 12)))
	add("smith", "Dpt.Smith", "Department", mvolap.Since(mvolap.Year(2001)))
	add("brian", "Dpt.Brian", "Department", mvolap.Since(mvolap.Year(2001)))
	add("bill", "Dpt.Bill", "Department", mvolap.Since(mvolap.Year(2003)))
	add("paul", "Dpt.Paul", "Department", mvolap.Since(mvolap.Year(2003)))
	for _, r := range []mvolap.TemporalRelationship{
		{From: "jones", To: "sales", Valid: mvolap.Between(mvolap.Year(2001), mvolap.YM(2002, 12))},
		{From: "smith", To: "sales", Valid: mvolap.Between(mvolap.Year(2001), mvolap.YM(2001, 12))},
		{From: "smith", To: "rnd", Valid: mvolap.Since(mvolap.Year(2002))},
		{From: "brian", To: "rnd", Valid: mvolap.Since(mvolap.Year(2001))},
		{From: "bill", To: "sales", Valid: mvolap.Since(mvolap.Year(2003))},
		{From: "paul", To: "sales", Valid: mvolap.Since(mvolap.Year(2003))},
	} {
		must(org.AddRelationship(r))
	}
	must(s.AddDimension(org))
	for _, m := range []mvolap.MappingRelationship{
		{From: "jones", To: "bill",
			Forward:  []mvolap.MeasureMapping{{Fn: mvolap.Linear(0.4), CF: mvolap.ApproxMapping}},
			Backward: []mvolap.MeasureMapping{{Fn: mvolap.Identity, CF: mvolap.ExactMapping}}},
		{From: "jones", To: "paul",
			Forward:  []mvolap.MeasureMapping{{Fn: mvolap.Linear(0.6), CF: mvolap.ApproxMapping}},
			Backward: []mvolap.MeasureMapping{{Fn: mvolap.Identity, CF: mvolap.ExactMapping}}},
	} {
		must(s.AddMapping(m))
	}
	type fact struct {
		id  mvolap.MVID
		yr  int
		amt float64
	}
	for _, f := range []fact{
		{"jones", 2001, 100}, {"smith", 2001, 50}, {"brian", 2001, 100},
		{"jones", 2002, 100}, {"smith", 2002, 100}, {"brian", 2002, 50},
		{"bill", 2003, 150}, {"paul", 2003, 50}, {"smith", 2003, 110}, {"brian", 2003, 40},
	} {
		must(s.InsertFact(mvolap.Coords{f.id}, mvolap.Year(f.yr), f.amt))
	}
	return s
}

// ExampleRun reproduces the paper's Table 9: Q2 presented in the 2002
// organization, where the 2003 amounts of the split departments map
// back exactly onto Dpt.Jones.
func ExampleRun() {
	s := caseStudy()
	out, err := mvolap.Run(s,
		"SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE VERSION AT 2002")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(mvolap.Render(out))
	// Output:
	// time | Org.Department | Amount
	// 2002 | Dpt.Brian | 50 (sd)
	// 2002 | Dpt.Jones | 100 (sd)
	// 2002 | Dpt.Smith | 100 (sd)
	// 2003 | Dpt.Brian | 40 (sd)
	// 2003 | Dpt.Jones | 200 (em)
	// 2003 | Dpt.Smith | 110 (sd)
	// mode=V2 quality=0.967
}

// ExampleSchema_StructureVersions shows the automatic partitioning of
// history into structure versions (Definition 9).
func ExampleSchema_StructureVersions() {
	s := caseStudy()
	for _, v := range s.StructureVersions() {
		fmt.Println(v)
	}
	// Output:
	// V1 [01/2001 ; 12/2001]
	// V2 [01/2002 ; 12/2002]
	// V3 [01/2003 ; Now]
}

// ExampleSchema_Execute runs the paper's Q1 in consistent time
// (Table 4) through the programmatic query API.
func ExampleSchema_Execute() {
	s := caseStudy()
	res, err := s.Execute(mvolap.Query{
		GroupBy: []mvolap.GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   mvolap.GrainYear,
		Range:   mvolap.Between(mvolap.Year(2001), mvolap.YM(2002, 12)),
		Mode:    mvolap.TCM(),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Rows() {
		fmt.Printf("%s %s %v\n", r.TimeKey, r.Groups[0], r.Values[0])
	}
	// Output:
	// 2001 R&D 100
	// 2001 Sales 150
	// 2002 R&D 150
	// 2002 Sales 100
}

// ExampleSchema_AggregateMember aggregates one member directly
// (Definition 12): Sales in 2003 presented in the 2002 structure.
func ExampleSchema_AggregateMember() {
	s := caseStudy()
	v2 := s.VersionAt(mvolap.Year(2002))
	values, cfs, err := s.AggregateMember("sales", mvolap.Year(2003), mvolap.InVersion(v2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Sales 2003 in the 2002 structure: %v (%s)\n", values[0], cfs[0])
	// Output:
	// Sales 2003 in the 2002 structure: 200 (em)
}
