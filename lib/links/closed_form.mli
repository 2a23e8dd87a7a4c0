(** Closed-form affine water-filling (the fast engine behind
    {!Links.nash} / {!Links.opt}).

    When every link latency is affine — including constants, degree-[<= 1]
    polynomials, [Shifted]-of-affine a-posteriori latencies and
    toll-shifted affines — the common level of the Wardrop equilibrium
    (and, on doubled-slope marginals, of the optimum) solves a linear
    equation once the active set is known. Sorting links by intercept
    makes the active set a prefix, so one O(m log m) sort plus an O(m)
    prefix scan replace the bisection of [Links.water_fill]; links whose
    flow would be negative at the candidate level are pruned by
    active-set restriction ([links.closed_form.prunes] counts them, and
    [links.closed_form.calls] the solves). Reducibility is
    {!Sgr_latency.Latency.reduce}. *)

val solve_lines :
  slopes:float array ->
  intercepts:float array ->
  demand:float ->
  float array * float
(** [solve_lines ~slopes ~intercepts ~demand] water-fills the criterion
    lines [yᵢ(x) = slopesᵢ·x + interceptsᵢ] directly: [(assignment,
    level)] with the assignment summing exactly to the demand. Zero-slope
    entries get the bisection engine's constant-link treatment (infinite
    reservoir at their intercept, even tie-splitting). Used by the
    pricing scenario to probe toll deviations without rebuilding latency
    values. *)

val solve :
  [ `Nash | `Opt ] ->
  Sgr_latency.Latency.t array ->
  demand:float ->
  (float array * float) option
(** [solve criterion latencies ~demand] reduces every latency and
    water-fills in closed form — on the latency lines for [`Nash], on the
    doubled-slope marginal lines for [`Opt]. [None] when some link does
    not reduce (the caller falls back to bisection). *)
