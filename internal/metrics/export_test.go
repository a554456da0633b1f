package metrics

// SearchBreakeven is the reference Breakeven for the external tests.
var SearchBreakeven = searchBreakeven
