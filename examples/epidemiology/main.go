// Epidemiology: disease surveillance across an administrative
// redistricting — the kind of spatio-temporal application the paper's
// authors built their prototype for.
//
// A health agency counts cases per district, rolled up to health
// regions. On 01/2004 the government redraws the map: district "Nord"
// is split between "Nord-Est" (55% of its population) and "Nord-Ouest"
// (45%); districts "Centre-A" and "Centre-B" merge into "Grand-Centre";
// and region "Littoral" annexes 20% of district "Plateau". Epidemiology
// needs BOTH presentations: incidence trends must be comparable across
// the reform (map old data onto new districts, flagged as estimates),
// and retrospective studies need the data exactly as recorded.
//
// The example also shows value lineage (§5.2): for any estimated cell,
// which source records fed it and through which conversion factors.
//
// Run with: go run ./examples/epidemiology
package main

import (
	"context"
	"fmt"
	"log"

	"mvolap"
	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/metadata"
)

func main() {
	s, applier := build()

	fmt.Println("Administrative history:")
	fmt.Print(applier.Script())
	fmt.Println()
	fmt.Println("Structure versions (the reform partitions history):")
	for _, v := range s.StructureVersions() {
		fmt.Printf("  %s\n", v)
	}
	fmt.Println()

	fmt.Println("Cases per district, as recorded (consistent time):")
	show(s, "SELECT Cases BY Geo.District, TIME.YEAR MODE tcm")
	fmt.Println("Cases per district, everything mapped onto the post-reform map:")
	show(s, "SELECT Cases BY Geo.District, TIME.YEAR MODE VERSION AT 2004")
	fmt.Println("Cases per region, post-reform map:")
	show(s, "SELECT Cases BY Geo.Region, TIME.YEAR MODE VERSION AT 2004")
	fmt.Println("Cases per district, pre-reform map (new data mapped backward):")
	show(s, "SELECT Cases BY Geo.District, TIME.YEAR MODE VERSION AT 2003")
	fmt.Println("Mode ranking for the district trend:")
	show(s, "QUALITY SELECT Cases BY Geo.District, TIME.YEAR")

	// Lineage: where does the estimated Nord-Est 2003 value come from?
	v4 := s.VersionAt(mvolap.Year(2004))
	steps, err := metadata.Explain(context.Background(), s, mvolap.InVersion(v4), mvolap.Coords{"nord-est"}, mvolap.Year(2003))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Lineage of the estimated cell (Nord-Est, 2003) in the 2004 presentation:")
	fmt.Print(metadata.RenderLineage(s, steps))
}

func show(s *mvolap.Schema, stmt string) {
	out, err := mvolap.Run(s, stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(mvolap.Render(out))
	fmt.Println()
}

func build() (*mvolap.Schema, *evolution.Applier) {
	s := mvolap.NewSchema("surveillance", mvolap.Measure{Name: "Cases", Agg: mvolap.Sum})
	g := mvolap.NewDimension("Geo", "Geo")
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	y02 := mvolap.Year(2002)
	add := func(id mvolap.MVID, name, level string) {
		must(g.AddVersion(&mvolap.MemberVersion{ID: id, Member: name, Name: name, Level: level, Valid: mvolap.Since(y02)}))
	}
	add("interieur", "Intérieur", "Region")
	add("littoral", "Littoral", "Region")
	add("nord", "Nord", "District")
	add("centre-a", "Centre-A", "District")
	add("centre-b", "Centre-B", "District")
	add("plateau", "Plateau", "District")
	add("cote", "Côte", "District")
	for _, r := range []mvolap.TemporalRelationship{
		{From: "nord", To: "interieur", Valid: mvolap.Since(y02)},
		{From: "centre-a", To: "interieur", Valid: mvolap.Since(y02)},
		{From: "centre-b", To: "interieur", Valid: mvolap.Since(y02)},
		{From: "plateau", To: "interieur", Valid: mvolap.Since(y02)},
		{From: "cote", To: "littoral", Valid: mvolap.Since(y02)},
	} {
		must(g.AddRelationship(r))
	}
	must(s.AddDimension(g))

	a := evolution.NewApplier(s)
	reform := mvolap.Year(2004)
	// Nord splits 55/45 by population.
	must(a.Apply(evolution.Split("Geo", "nord", []evolution.SplitTarget{
		{
			Member:   evolution.NewMember{ID: "nord-est", Name: "Nord-Est", Level: "District", Parents: []mvolap.MVID{"interieur"}},
			Forward:  core.UniformMapping(1, core.Linear{K: 0.55}, core.ApproxMapping),
			Backward: core.UniformMapping(1, core.Identity, core.ExactMapping),
		},
		{
			Member:   evolution.NewMember{ID: "nord-ouest", Name: "Nord-Ouest", Level: "District", Parents: []mvolap.MVID{"interieur"}},
			Forward:  core.UniformMapping(1, core.Linear{K: 0.45}, core.ApproxMapping),
			Backward: core.UniformMapping(1, core.Identity, core.ExactMapping),
		},
	}, reform)...))
	// Centre-A and Centre-B merge; back-mapping by population shares.
	must(a.Apply(evolution.Merge("Geo", []evolution.MergeSource{
		{ID: "centre-a",
			Forward:  core.UniformMapping(1, core.Identity, core.ExactMapping),
			Backward: core.UniformMapping(1, core.Linear{K: 0.6}, core.ApproxMapping)},
		{ID: "centre-b",
			Forward:  core.UniformMapping(1, core.Identity, core.ExactMapping),
			Backward: core.UniformMapping(1, core.Linear{K: 0.4}, core.ApproxMapping)},
	}, evolution.NewMember{ID: "grand-centre", Name: "Grand-Centre", Level: "District", Parents: []mvolap.MVID{"interieur"}}, reform)...))
	// Littoral annexes 20% of Plateau (partial annexation, Table 11).
	must(a.Apply(evolution.PartialAnnexation("Geo", "plateau", "cote",
		evolution.NewMember{ID: "plateau2", Name: "Plateau", Level: "District", Parents: []mvolap.MVID{"interieur"}},
		evolution.NewMember{ID: "cote2", Name: "Côte", Level: "District", Parents: []mvolap.MVID{"littoral"}},
		reform, 0.2, 0.25, 1)...))

	type fact struct {
		id    mvolap.MVID
		yr    int
		cases float64
	}
	for _, f := range []fact{
		{"nord", 2002, 120}, {"centre-a", 2002, 80}, {"centre-b", 2002, 60}, {"plateau", 2002, 100}, {"cote", 2002, 40},
		{"nord", 2003, 150}, {"centre-a", 2003, 90}, {"centre-b", 2003, 70}, {"plateau", 2003, 110}, {"cote", 2003, 50},
		{"nord-est", 2004, 95}, {"nord-ouest", 2004, 70}, {"grand-centre", 2004, 160},
		{"plateau2", 2004, 95}, {"cote2", 2004, 75},
	} {
		must(s.InsertFact(mvolap.Coords{f.id}, mvolap.Year(f.yr), f.cases))
	}
	return s, a
}
