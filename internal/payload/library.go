// Library builders: the published attack patterns of the paper's threat
// model (Section II-E) as compact LOOP programs. Each builder writes one
// period of the pattern's row stream in closed form and wraps it in a
// loop (plus the remainder prefix), so a program of any length is a few
// lines of DSL.
package payload

import "fmt"

// SingleSided is the classic one-aggressor hammer as a program: acts
// activations of the aggressor row.
func SingleSided(aggressor, acts int) *Program {
	return roll(fmt.Sprintf("single-sided(%d)", aggressor), []int{aggressor}, acts)
}

// DoubleSided alternates the two rows sandwiching the victim, doubling
// the disturbance rate on it.
func DoubleSided(victim, acts int) *Program {
	return roll(fmt.Sprintf("double-sided(%d)", victim), []int{victim - 1, victim + 1}, acts)
}

// ManySided is the TRRespass pattern: the true aggressor pair around the
// victim plus a burst of decoy rows (dummyBase, dummyBase+8, …) after
// each aggressor, sized to overflow TRR's sampler and evict the real
// aggressors before the next REF can refresh their neighbours. One
// period is aggressor-, decoy burst, aggressor+, decoy burst.
func ManySided(victim, dummies, dummyBase, acts int) *Program {
	rows := make([]int, 0, 2+2*dummies)
	for _, aggressor := range []int{victim - 1, victim + 1} {
		rows = append(rows, aggressor)
		for d := 0; d < dummies; d++ {
			rows = append(rows, dummyBase+8*d)
		}
	}
	return roll(fmt.Sprintf("many-sided(%d,+%d@%d)", victim, dummies, dummyBase), rows, acts)
}

// HalfDouble is Google's distance-two pattern: the far rows (victim±2)
// are hammered alternately and heavily, the near rows (victim±1)
// lightly. The mitigation sees the far rows as aggressors and keeps
// refreshing the near rows, and each of those refreshes is an
// activation at distance 1 from the victim. With nearEvery > 0 the
// period is 2×nearEvery slots alternating victim-2 and victim+2, except
// that slot nearEvery/2 hits victim-1 and slot nearEvery+nearEvery/2
// hits victim+1; nearEvery = 0 never touches the near rows and relies
// purely on mitigation refreshes.
func HalfDouble(victim, nearEvery, acts int) *Program {
	period := 2
	if nearEvery > 0 {
		period = 2 * nearEvery
	}
	rows := make([]int, period)
	for i := range rows {
		rows[i] = victim - 2 + 4*(i%2)
	}
	if nearEvery > 0 {
		rows[nearEvery/2] = victim - 1
		rows[nearEvery+nearEvery/2] = victim + 1
	}
	return roll(fmt.Sprintf("half-double(%d,near%d)", victim, nearEvery), rows, acts)
}

// roll emits LOOP ⌊acts/period⌋ { ACT period } followed by the
// remainder prefix: exactly `acts` activations whose i-th row is
// period[i mod len(period)].
func roll(name string, period []int, acts int) *Program {
	if len(period) < 1 || acts < 1 || acts > MaxLoop {
		panic(fmt.Sprintf("payload: bad roll(%q, period=%d, acts=%d)", name, len(period), acts))
	}
	prog := &Program{Name: name}
	full, rem := acts/len(period), acts%len(period)
	if full > 0 {
		body := make([]Instr, len(period))
		for i, r := range period {
			body[i] = Act{Row: r}
		}
		if full == 1 {
			prog.Body = append(prog.Body, body...)
		} else {
			prog.Body = append(prog.Body, Loop{Count: full, Body: body})
		}
	}
	for _, r := range period[:rem] {
		prog.Body = append(prog.Body, Act{Row: r})
	}
	return prog
}
