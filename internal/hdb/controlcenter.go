package hdb

import (
	"fmt"
	"time"

	"repro/internal/consent"
	"repro/internal/policy"
)

// ControlCenter is the administrative surface of the HDB components
// (paper §4.1: "Our user would use the HDB Control Center to enter
// fine-grained rules, patient consent information and specify what
// needs to be auditable"). It wraps an Enforcer with validated entry
// points suitable for a UI or HTTP layer.
type ControlCenter struct {
	enf *Enforcer
	cs  *consent.Store
}

// NewControlCenter wires a control center to an enforcer and its
// consent store (may be nil when consent is unmanaged).
func NewControlCenter(enf *Enforcer, cs *consent.Store) *ControlCenter {
	return &ControlCenter{enf: enf, cs: cs}
}

// AddRule parses a compact rule ("data=x & purpose=y & authorized=z")
// and adds it to the policy store. Rules must stay within the
// vocabulary so that coverage and refinement remain meaningful.
func (cc *ControlCenter) AddRule(compact string) (policy.Rule, error) {
	r, err := policy.ParseRule(compact)
	if err != nil {
		return policy.Rule{}, err
	}
	for _, t := range r.Terms() {
		h := cc.enf.v.Hierarchy(t.Attr)
		if h == nil {
			return policy.Rule{}, fmt.Errorf("hdb: unknown policy attribute %q", t.Attr)
		}
		if !h.Contains(t.Value) {
			return policy.Rule{}, fmt.Errorf("hdb: value %q is not in the %q vocabulary", t.Value, t.Attr)
		}
	}
	cc.enf.ps.Add(r)
	return r, nil
}

// RemoveRule deletes a rule in compact form, reporting whether it was
// present.
func (cc *ControlCenter) RemoveRule(compact string) (bool, error) {
	r, err := policy.ParseRule(compact)
	if err != nil {
		return false, err
	}
	return cc.enf.ps.Remove(r), nil
}

// SetConsent records a patient consent choice.
func (cc *ControlCenter) SetConsent(patient, data, purpose string, choice consent.Choice, at time.Time) error {
	if cc.cs == nil {
		return fmt.Errorf("hdb: no consent store configured")
	}
	return cc.cs.Set(patient, data, purpose, choice, at)
}

// Rules lists the current policy rules in compact form.
func (cc *ControlCenter) Rules() []string {
	rules := cc.enf.ps.Rules()
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Compact()
	}
	return out
}
