// Treerecords: PRIMA's conclusion calls for adapting the core
// concepts to hierarchical, XML-like legacy records. This example
// maps element paths of an XML patient record onto the privacy
// vocabulary and applies the policy store to redact the subtrees a
// requester may not see — the tree-shaped analogue of HDB Active
// Enforcement's column masking.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/treerec"
)

const record = `
<record id="r-1972">
  <patient>p2</patient>
  <demographics>
    <address>2 Oak Ave</address>
    <gender>f</gender>
  </demographics>
  <clinical>
    <prescription>statins 20mg</prescription>
    <referral>dermatology consult</referral>
    <psychiatry>
      <note>generalized anxiety, CBT referral</note>
    </psychiatry>
  </clinical>
</record>`

func main() {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()

	rec, err := treerec.ParseXMLString(record)
	if err != nil {
		log.Fatal(err)
	}

	m := treerec.NewMapping(v)
	for pattern, category := range map[string]string{
		"demographics/address":  "address",
		"demographics/gender":   "gender",
		"clinical/prescription": "prescription",
		"clinical/referral":     "referral",
		"clinical/psychiatry":   "psychiatry",
	} {
		if err := m.Add(pattern, category); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("record carries categories: %v\n\n", m.Classify(rec))

	// Policy decision, reusing the exact coverage machinery: a
	// category is visible when (category, purpose, role) lies in the
	// policy store's range.
	rg := policy.SharedSym.Range(ps, v)
	show := func(role, purpose string) {
		allowed := func(category string) bool {
			return rg.ContainsTriple(v, category, purpose, role)
		}
		red := m.Redact(rec, allowed)
		fmt.Printf("--- view for %s / %s (kept: %v, redacted: %d subtrees)\n",
			role, purpose, red.Kept, len(red.Removed))
		if err := red.Record.WriteXML(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	show("nurse", "treatment")        // sees prescription + referral, no psychiatry, no demographics
	show("psychiatrist", "treatment") // sees psychiatry only
	show("clerk", "billing")          // sees demographics only
}
