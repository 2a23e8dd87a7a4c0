type kind =
  | Constant of float
  | Affine of { slope : float; intercept : float }
  | Polynomial of float array
  | Mm1 of { capacity : float }
  | Bpr of { free_flow : float; capacity : float; alpha : float; beta : float }
  | Shifted of { offset : float; base : kind }
  | Custom of string

type t = {
  kind : kind;
  eval : float -> float;
  deriv : float -> float;
  primitive : float -> float;
}

let c_evals = Sgr_obs.Obs.counter "latency.evaluations"

let kind t = t.kind

let eval t x =
  Sgr_obs.Obs.incr c_evals;
  t.eval x

let deriv t x = t.deriv x
let primitive t x = t.primitive x

let marginal t x =
  Sgr_obs.Obs.incr c_evals;
  t.eval x +. (x *. t.deriv x)

let cost t x = x *. t.eval x

let constant c =
  if c < 0.0 then invalid_arg "Latency.constant: negative delay";
  { kind = Constant c; eval = (fun _ -> c); deriv = (fun _ -> 0.0); primitive = (fun x -> c *. x) }

let affine ~slope ~intercept =
  if slope < 0.0 || intercept < 0.0 then invalid_arg "Latency.affine: negative coefficient";
  (* Exact test by design: only a literal zero slope normalizes to the
     [Constant] constructor; a denormal slope is still affine. *)
  if (slope = 0.0) [@lint.allow "float-equality"] then constant intercept
  else
    {
      kind = Affine { slope; intercept };
      eval = (fun x -> (slope *. x) +. intercept);
      deriv = (fun _ -> slope);
      primitive = (fun x -> (0.5 *. slope *. x *. x) +. (intercept *. x));
    }

let linear a = affine ~slope:a ~intercept:0.0

(* Horner evaluation. *)
let horner coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := (!acc *. x) +. coeffs.(i)
  done;
  !acc

let polynomial coeffs =
  if Array.exists (fun c -> c < 0.0) coeffs then
    invalid_arg "Latency.polynomial: negative coefficient";
  let coeffs = Array.copy coeffs in
  let n = Array.length coeffs in
  let nonconst = ref false in
  for i = 1 to n - 1 do
    if coeffs.(i) > 0.0 then nonconst := true
  done;
  if n = 0 then constant 0.0
  else if not !nonconst then constant coeffs.(0)
  else
    let dcoeffs = Array.init (max 0 (n - 1)) (fun i -> float_of_int (i + 1) *. coeffs.(i + 1)) in
    let pcoeffs = Array.init (n + 1) (fun i -> if i = 0 then 0.0 else coeffs.(i - 1) /. float_of_int i) in
    {
      kind = Polynomial coeffs;
      eval = horner coeffs;
      deriv = horner dcoeffs;
      primitive = horner pcoeffs;
    }

let monomial ~coeff ~degree =
  if degree < 0 then invalid_arg "Latency.monomial: negative degree";
  let coeffs = Array.make (degree + 1) 0.0 in
  coeffs.(degree) <- coeff;
  polynomial coeffs

let mm1 ~capacity =
  if capacity <= 0.0 then invalid_arg "Latency.mm1: capacity must be positive";
  let eval x = if x >= capacity then Float.infinity else 1.0 /. (capacity -. x) in
  let deriv x =
    if x >= capacity then Float.infinity else 1.0 /. ((capacity -. x) *. (capacity -. x))
  in
  let primitive x =
    if x >= capacity then Float.infinity else Float.log (capacity /. (capacity -. x))
  in
  { kind = Mm1 { capacity }; eval; deriv; primitive }

let bpr ~free_flow ~capacity ?(alpha = 0.15) ?(beta = 4.0) () =
  if free_flow < 0.0 || capacity <= 0.0 || alpha < 0.0 || beta < 1.0 then
    invalid_arg "Latency.bpr: bad parameter";
  let eval x = free_flow *. (1.0 +. (alpha *. ((x /. capacity) ** beta))) in
  let deriv x =
    free_flow *. alpha *. beta /. capacity *. ((x /. capacity) ** (beta -. 1.0))
  in
  let primitive x =
    free_flow *. (x +. (alpha *. capacity /. (beta +. 1.0) *. ((x /. capacity) ** (beta +. 1.0))))
  in
  { kind = Bpr { free_flow; capacity; alpha; beta }; eval; deriv; primitive }

let custom ?(label = "custom") ~eval ?deriv ?primitive () =
  let deriv =
    match deriv with
    | Some d -> d
    | None ->
        fun x ->
          let h = 1e-6 *. Float.max 1.0 (Float.abs x) in
          let lo = Float.max 0.0 (x -. h) in
          (eval (x +. h) -. eval lo) /. (x +. h -. lo)
  in
  let primitive =
    match primitive with
    | Some p -> p
    | None -> fun x -> Sgr_numerics.Integrate.adaptive_simpson ~f:eval ~lo:0.0 ~hi:x ()
  in
  { kind = Custom label; eval; deriv; primitive }

let shift s base =
  if s < 0.0 then invalid_arg "Latency.shift: negative offset";
  (* Exact test by design: zero offset is the identity, anything else
     must build a [Shifted] node. *)
  if (s = 0.0) [@lint.allow "float-equality"] then base
  else
    (* Canonical form: shifting a shifted latency sums the offsets instead
       of nesting [Shifted] nodes, so structurally equal latencies built by
       different shift sequences have equal kinds (and hence equal
       canonical serializations and fingerprints). The evaluation closures
       chain through [base] either way — ℓ((s₁+s₂)+x) = (ℓ∘(+s₂))(s₁+x). *)
    let kind =
      match base.kind with
      | Shifted { offset; base = inner } -> Shifted { offset = s +. offset; base = inner }
      | k -> Shifted { offset = s; base = k }
    in
    {
      kind;
      eval = (fun x -> base.eval (s +. x));
      deriv = (fun x -> base.deriv (s +. x));
      primitive = (fun x -> base.primitive (s +. x) -. base.primitive s);
    }

let rec pp_kind ppf = function
  | Constant c -> Format.fprintf ppf "%.4g" c
  | Affine { slope; intercept } ->
      (* Printer cosmetics: exact zero decides whether the term shows. *)
      if (intercept = 0.0) [@lint.allow "float-equality"] then Format.fprintf ppf "%.4gx" slope
      else Format.fprintf ppf "%.4gx + %.4g" slope intercept
  | Polynomial coeffs ->
      let first = ref true in
      Array.iteri
        (fun i c ->
          if (c <> 0.0) [@lint.allow "float-equality"] || (i = 0 && Array.length coeffs = 1)
          then begin
            if not !first then Format.pp_print_string ppf " + ";
            first := false;
            match i with
            | 0 -> Format.fprintf ppf "%.4g" c
            | 1 -> Format.fprintf ppf "%.4gx" c
            | _ -> Format.fprintf ppf "%.4gx^%d" c i
          end)
        coeffs;
      if !first then Format.pp_print_string ppf "0"
  | Mm1 { capacity } -> Format.fprintf ppf "1/(%.4g - x)" capacity
  | Bpr { free_flow; capacity; alpha; beta } ->
      Format.fprintf ppf "%.4g(1 + %.4g(x/%.4g)^%.4g)" free_flow alpha capacity beta
  | Shifted { offset; base } -> Format.fprintf ppf "(%a)∘(+%.4g)" pp_kind base offset
  | Custom label -> Format.pp_print_string ppf label

(* Rebuild a closed-form latency value from its kind; [None] for the
   kinds that carry behaviour outside the kind ([Custom]'s closures,
   [Shifted]'s base value). Used by [shift_intercept] to stay in closed
   form under a [Shifted] node. *)
let of_kind_opt = function
  | Constant c -> Some (constant c)
  | Affine { slope; intercept } -> Some (affine ~slope ~intercept)
  | Polynomial coeffs -> Some (polynomial coeffs)
  | Mm1 { capacity } -> Some (mm1 ~capacity)
  | Bpr { free_flow; capacity; alpha; beta } ->
      Some (bpr ~free_flow ~capacity ~alpha ~beta ())
  | Shifted _ | Custom _ -> None

(* Tolls enter latencies as constant intercept shifts: ℓ(x) + τ. The sum
   keeps the derivative and shifts the primitive linearly, so it is again
   a valid latency; the closed-form kinds absorb τ into their
   coefficients so solvers keep their fast inverses (and the affine
   closed-form engine its reduction). *)
let rec shift_intercept tau t =
  if tau < 0.0 then invalid_arg "Latency.shift_intercept: negative shift";
  (* Exact test by design: a zero shift is the identity. *)
  if (tau = 0.0) [@lint.allow "float-equality"] then t
  else
    match t.kind with
    | Constant c -> constant (c +. tau)
    | Affine { slope; intercept } -> affine ~slope ~intercept:(intercept +. tau)
    | Polynomial coeffs ->
        let coeffs = Array.copy coeffs in
        if Array.length coeffs = 0 then constant tau
        else begin
          coeffs.(0) <- coeffs.(0) +. tau;
          polynomial coeffs
        end
    | Shifted { offset; base } -> (
        (* base(offset + x) + τ = (base + τ)(offset + x): push the shift
           into the base when the base is reconstructible. *)
        match of_kind_opt base with
        | Some b -> shift offset (shift_intercept tau b)
        | None ->
            {
              kind = Custom (Format.asprintf "%a + %.4g" pp_kind t.kind tau);
              eval = (fun x -> t.eval x +. tau);
              deriv = t.deriv;
              primitive = (fun x -> t.primitive x +. (tau *. x));
            })
    | Mm1 _ | Bpr _ | Custom _ ->
        {
          kind = Custom (Format.asprintf "%a + %.4g" pp_kind t.kind tau);
          eval = (fun x -> t.eval x +. tau);
          deriv = t.deriv;
          primitive = (fun x -> t.primitive x +. (tau *. x));
        }

let rec kind_constant_value = function
  | Constant c -> Some c
  | Affine { slope = 0.0; intercept } -> Some intercept
  | Affine _ | Mm1 _ | Bpr _ | Custom _ -> None
  | Polynomial coeffs ->
      let nonconst = ref false in
      for i = 1 to Array.length coeffs - 1 do
        (* Structural constancy: any nonzero stored coefficient, however
           small, makes the polynomial non-constant. *)
        if (coeffs.(i) <> 0.0) [@lint.allow "float-equality"] then nonconst := true
      done;
      if !nonconst then None
      else Some (if Array.length coeffs = 0 then 0.0 else coeffs.(0))
  | Shifted { base; _ } -> kind_constant_value base

let constant_value t = kind_constant_value t.kind
let is_constant t = Option.is_some (constant_value t)

(* Allocation-free line reduction: writes the coefficients of [kind]
   into slot [i] of the coefficient arrays and reports reducibility by
   return value, so hot dispatch loops pay no option tuple per link. A
   latency reduces when it behaves exactly as ℓ(x) = a·x + b on x >= 0
   (a = 0 for constants); [Shifted] composes: base(s + x) =
   a·x + (a·s + b). The [Polynomial] case is a structural degree test,
   like [kind_constant_value]: any nonzero stored coefficient past the
   linear term, however small, disqualifies the reduction. *)
let rec reduce_kind_into kind (slopes : float array) (intercepts : float array) i =
  match kind with
  | Constant c ->
      slopes.(i) <- 0.0;
      intercepts.(i) <- c;
      true
  | Affine { slope; intercept } ->
      slopes.(i) <- slope;
      intercepts.(i) <- intercept;
      true
  | Polynomial coeffs ->
      let higher = ref false in
      for j = 2 to Array.length coeffs - 1 do
        if (coeffs.(j) <> 0.0) [@lint.allow "float-equality"] then higher := true
      done;
      if !higher then false
      else begin
        let m = Array.length coeffs in
        slopes.(i) <- (if m > 1 then coeffs.(1) else 0.0);
        intercepts.(i) <- (if m > 0 then coeffs.(0) else 0.0);
        true
      end
  | Shifted { offset; base } ->
      reduce_kind_into base slopes intercepts i
      && begin
           intercepts.(i) <- intercepts.(i) +. (slopes.(i) *. offset);
           true
         end
  | Mm1 _ | Bpr _ | Custom _ -> false
(* why: structural recursion on the [Shifted] nesting of one latency
   kind — depth is fixed by the instance description, not the demand,
   so the recursion terminates in a handful of frames. *)
[@@lint.allow "cancel-coverage"]

let reduce_into t ~slopes ~intercepts i = reduce_kind_into t.kind slopes intercepts i

let reduce t =
  let a = Array.make 1 0.0 and b = Array.make 1 0.0 in
  if reduce_into t ~slopes:a ~intercepts:b 0 then Some (a.(0), b.(0)) else None

let inverse_of f t y =
  match constant_value t with
  (* [Failure] is the documented contract here; the links water-filling
     callers and the tests both match on it. *)
  | Some _ -> (failwith "Latency.inverse: constant latency has no inverse") [@lint.allow "no-untyped-failure"]
  | None ->
      if f t 0.0 >= y then 0.0
      else begin
        let g x = f t x in
        (* M/M/1 never exceeds capacity: cap the expansion below it. *)
        let hi =
          match t.kind with
          | Mm1 { capacity } | Shifted { base = Mm1 { capacity }; _ } ->
              (* Find hi < capacity with g hi >= y by halving the gap. *)
              let offset = match t.kind with Shifted { offset; _ } -> offset | _ -> 0.0 in
              let cap = capacity -. offset in
              if cap <= 0.0 then
                (failwith "Latency.inverse: shifted M/M/1 beyond capacity")
                [@lint.allow "no-untyped-failure"]
              else begin
                let gap = ref (0.5 *. cap) in
                while g (cap -. !gap) < y && !gap > 1e-300 do
                  gap := 0.5 *. !gap
                done;
                cap -. !gap
              end
          | _ -> Sgr_numerics.Bisection.expand_upper ~f:g ~target:y ()
        in
        Sgr_numerics.Bisection.solve_increasing ~f:g ~y ~lo:0.0 ~hi ()
      end

let inverse t y =
  match t.kind with
  | Affine { slope; intercept } when slope > 0.0 ->
      Float.max 0.0 ((y -. intercept) /. slope)
  | Shifted { offset; base = Affine { slope; intercept } } when slope > 0.0 ->
      Float.max 0.0 (((y -. intercept) /. slope) -. offset)
  | Mm1 { capacity } ->
      if y <= 1.0 /. capacity then 0.0 else capacity -. (1.0 /. y)
  | Shifted { offset; base = Mm1 { capacity } } ->
      if y <= 1.0 /. (capacity -. offset) then 0.0
      else Float.max 0.0 (capacity -. (1.0 /. y) -. offset)
  | _ -> inverse_of eval t y

let inverse_marginal t y =
  match t.kind with
  (* marginal of a·x + b is 2a·x + b *)
  | Affine { slope; intercept } when slope > 0.0 ->
      Float.max 0.0 ((y -. intercept) /. (2.0 *. slope))
  | Shifted { offset; base = Affine { slope; intercept } } when slope > 0.0 ->
      (* marginal of x ↦ a(s+x)+b is a(s+x)+b + x·a = 2a·x + (a·s + b) *)
      Float.max 0.0 ((y -. intercept -. (slope *. offset)) /. (2.0 *. slope))
  | _ -> inverse_of marginal t y

let pp ppf t = pp_kind ppf t.kind
let to_string t = Format.asprintf "%a" pp t

let check_increasing ?(samples = 64) ?(hi = 10.0) t =
  let ok = ref true in
  let prev = ref (t.eval 0.0) in
  for i = 1 to samples do
    let x = hi *. float_of_int i /. float_of_int samples in
    let v = t.eval x in
    if v < !prev -. 1e-12 then ok := false;
    prev := v
  done;
  !ok
