(* Closed-form water-filling on parallel links whose latencies are all
   affine (or constant). The common level of a Wardrop equilibrium —
   and, on the doubled-slope marginals, of the optimum — solves a linear
   equation once the set of loaded links is known: with the active set
   [A], Σ_{i∈A} (L - bᵢ)/sᵢ = r, so L = (r + Σ bᵢ/sᵢ) / Σ 1/sᵢ.
   Instead of bisecting as [Links.water_fill] does, the active set is
   found by fixed-point restriction: start from every link, compute the
   candidate level, and drop the links whose intercept it does not
   reach (they would carry negative flow). The level only falls as
   links drop, so the sets are nested and the iteration terminates at
   the first pass that keeps its set. Random instances settle in three
   or four O(|active|) passes after one O(m) restriction; the
   adversarial intercept ladder degrades gracefully to O(m + |active|²),
   within the advertised O(m log m) for the active sets that arise from
   bounded-ratio slopes. *)

module L = Sgr_latency.Latency
module Tol = Sgr_numerics.Tolerance
module Obs = Sgr_obs.Obs

let c_calls = Obs.counter "links.closed_form.calls"
let c_prunes = Obs.counter "links.closed_form.prunes"

(* Kahan sum, inlined from [Vec.sum] so the compensation order — and
   therefore the rescale divisor — matches the bisection engine bit for
   bit without paying its per-element closure. *)
let kahan_sum (v : float array) =
  let s = ref 0.0 and c = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let y = v.(i) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

(* Direct water-filling on criterion lines yᵢ(x) = sᵢ·x + bᵢ. Mirrors
   [Links.water_fill] exactly, including the constant-link semantics: a
   zero-slope link is an infinite reservoir at its intercept, ties at the
   level split evenly, and the final assignment is rescaled to sum to the
   demand. Returns [(assignment, level)]. *)
let solve_lines ~slopes ~intercepts ~demand:r =
  let n = Array.length slopes in
  assert (n > 0 && Array.length intercepts = n);
  let rigid i = slopes.(i) > 0.0 in
  if r <= 0.0 then begin
    let base_level = ref Float.infinity in
    for i = 0 to n - 1 do
      base_level := Float.min !base_level intercepts.(i)
    done;
    (Array.make n 0.0, !base_level)
  end
  else begin
    Obs.incr c_calls;
    (* One combined pass: the constant reservoir's level, the rigid-link
       count, the cached reciprocal slopes the fixed-point sums multiply
       by (a division per link per pass would dominate), and the
       all-rigid sums that seed the first candidate level. *)
    let inv_s = Array.make n 0.0 in
    let nr = ref 0 in
    let c_min = ref Float.infinity in
    let inv_sum0 = ref 0.0 and weighted_sum0 = ref 0.0 in
    for i = 0 to n - 1 do
      if slopes.(i) > 0.0 then begin
        let w = 1.0 /. slopes.(i) in
        inv_s.(i) <- w;
        inv_sum0 := !inv_sum0 +. w;
        weighted_sum0 := !weighted_sum0 +. (intercepts.(i) *. w);
        incr nr
      end
      else c_min := Float.min !c_min intercepts.(i)
    done;
    let nr = !nr in
    let c_min = !c_min in
    (* Flow the rigid links absorb at the constant reservoir's level. *)
    let absorbed_at_c_min =
      if c_min < Float.infinity then begin
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          if rigid i then
            acc := !acc +. Tol.clamp_nonneg ((c_min -. intercepts.(i)) /. slopes.(i))
        done;
        !acc
      end
      else Float.infinity
    in
    let assignment = Array.make n 0.0 in
    let level =
      if absorbed_at_c_min < r then begin
        (* Reservoir case: the level is pinned at [c_min]; the constant
           links sitting (approximately) at it share the remainder
           evenly, as in the bisection engine. *)
        for i = 0 to n - 1 do
          if rigid i then
            assignment.(i) <- Tol.clamp_nonneg ((c_min -. intercepts.(i)) /. slopes.(i))
        done;
        let at_level = ref [] in
        for i = n - 1 downto 0 do
          if (not (rigid i)) && Tol.approx ~eps:1e-9 intercepts.(i) c_min then
            at_level := i :: !at_level
        done;
        let k = List.length !at_level in
        assert (k > 0);
        let share = (r -. absorbed_at_c_min) /. float_of_int k in
        List.iter (fun i -> assignment.(i) <- share) !at_level;
        (* Exact-feasibility normalization, as the bisection engine. *)
        let total = kahan_sum assignment in
        if total > 0.0 then begin
          let correction = r /. total in
          for i = 0 to n - 1 do
            assignment.(i) <- assignment.(i) *. correction
          done
        end;
        c_min
      end
      else begin
        (* Rigid case: the level lies strictly among the increasing
           links. Active-set restriction by fixed-point iteration: start
           from every rigid link, compute the common level, and restrict
           to the links whose intercept the level still reaches. The
           level falls monotonically as negative-flow links drop out, so
           membership is just [bᵢ < level] against the latest candidate
           — no sorting, no bookkeeping — and the set can only shrink;
           when a pass keeps the set (sizes match on nested sets), the
           candidate is the fixed point. The survivors of the first
           restriction are compacted into [idxs] so every later pass —
           and the final fill — touches only them, not all m links.
           Random instances settle in three or four passes; the
           adversarial ladder costs O(m + |active|²). *)
        assert (nr > 0);
        let level1 = (r +. !weighted_sum0) /. !inv_sum0 in
        let idxs = Array.make nr 0 in
        let nc = ref 0 and inv_sum = ref 0.0 and weighted_sum = ref 0.0 in
        for i = 0 to n - 1 do
          if slopes.(i) > 0.0 && intercepts.(i) < level1 then begin
            idxs.(!nc) <- i;
            inv_sum := !inv_sum +. inv_s.(i);
            weighted_sum := !weighted_sum +. (intercepts.(i) *. inv_s.(i));
            incr nc
          end
        done;
        (* [nc >= 1]: with r > 0 the candidate strictly exceeds the
           smallest intercept in the set it was computed over, so the
           minimum-intercept link always survives the restriction. *)
        let active = ref !nc in
        let candidate = ref ((r +. !weighted_sum) /. !inv_sum) in
        let settled = ref (!nc = nr) in
        while not !settled do
          (* Each restriction pass is O(n) and the active set only
             shrinks, but n passes over 10^5 links is real time — let an
             armed deadline pre-empt the active-set iteration. *)
          Sgr_obs.Cancel.check ();
          let nc2 = ref 0 and inv2 = ref 0.0 and w2 = ref 0.0 in
          for k = 0 to !active - 1 do
            let i = idxs.(k) in
            if intercepts.(i) < !candidate then begin
              idxs.(!nc2) <- i;
              inv2 := !inv2 +. inv_s.(i);
              w2 := !w2 +. (intercepts.(i) *. inv_s.(i));
              incr nc2
            end
          done;
          if !nc2 = !active then settled := true
          else begin
            active := !nc2;
            candidate := (r +. !w2) /. !inv2
          end
        done;
        Obs.add c_prunes (nr - !active);
        let level = !candidate in
        for k = 0 to !active - 1 do
          let i = idxs.(k) in
          assignment.(i) <- Tol.clamp_nonneg ((level -. intercepts.(i)) /. slopes.(i))
        done;
        (* Exact-feasibility normalization over the loaded prefix (the
           rest of the assignment is exact zeros): spread the (tiny)
           closed-form rounding over the active links, as the bisection
           engine does over all of them. *)
        let total =
          let s = ref 0.0 and c = ref 0.0 in
          for k = 0 to !active - 1 do
            let y = assignment.(idxs.(k)) -. !c in
            let t = !s +. y in
            c := t -. !s -. y;
            s := t
          done;
          !s
        in
        if total > 0.0 then begin
          let correction = r /. total in
          for k = 0 to !active - 1 do
            let i = idxs.(k) in
            assignment.(i) <- assignment.(i) *. correction
          done
        end;
        level
      end
    in
    (assignment, level)
  end

let solve criterion lats ~demand =
  let n = Array.length lats in
  let slopes = Array.make n 0.0 and intercepts = Array.make n 0.0 in
  let ok = ref true in
  let i = ref 0 in
  (* why: one early-exiting pass over the n links, constant work per
     link — bounded by the instance size before any solving starts. *)
  (while !ok && !i < n do
     ok := L.reduce_into lats.(!i) ~slopes ~intercepts !i;
     incr i
   done)
  [@lint.allow "cancel-coverage"];
  if not !ok then None
  else begin
    (* The optimum equalizes marginal costs: d(x·(a·x+b))/dx = 2a·x + b —
       the same intercepts on doubled slopes. *)
    (match criterion with
    | `Nash -> ()
    | `Opt ->
        for i = 0 to n - 1 do
          slopes.(i) <- 2.0 *. slopes.(i)
        done);
    Some (solve_lines ~slopes ~intercepts ~demand)
  end
