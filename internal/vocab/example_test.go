package vocab_test

import (
	"fmt"

	"repro/internal/vocab"
)

// ExampleVocabulary_GroundSet expands the paper's composite RuleTerm
// (data, demographic) into its ground set RT' (Definition 3).
func ExampleVocabulary_GroundSet() {
	v := vocab.Sample()
	fmt.Println(v.GroundSet("data", "demographic"))
	// Output: [address birthdate gender phone]
}

// ExampleParseText builds a vocabulary from the indented text format.
func ExampleParseText() {
	v, _ := vocab.ParseTextString(`
data
  clinical: prescription referral
purpose
  treatment
`)
	fmt.Println(v.Subsumes("data", "clinical", "referral"))
	fmt.Println(v.IsGround("data", "clinical"), v.IsGround("data", "referral"))
	// Output:
	// true
	// false true
}
