(* Shared Alcotest/QCheck helpers for the suites. *)

let approx ?(eps = 1e-6) msg expected actual =
  if not (Sgr_numerics.Tolerance.approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %.1g)" msg expected actual eps

let approx_le ?(eps = 1e-6) msg a b =
  if not (Sgr_numerics.Tolerance.approx_le ~eps a b) then
    Alcotest.failf "%s: expected %.12g <= %.12g (eps %.1g)" msg a b eps

let approx_array ?(eps = 1e-6) msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length mismatch %d vs %d" msg (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i e ->
      if not (Sgr_numerics.Tolerance.approx ~eps e actual.(i)) then
        Alcotest.failf "%s: index %d: expected %.12g, got %.12g" msg i e actual.(i))
    expected

let check_true msg b = Alcotest.(check bool) msg true b
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The edge-flow solvers at the tolerances the small-network suites
   assert against: Frank–Wolfe to gap 1e-8 within 100_000 iterations,
   MSA to 1e-6 within 200_000. [Sgr_assign.Solver]'s own defaults
   (1e-4, 10_000) are sized for city-scale runs and would stop MSA
   early here. *)
let fw ?(tol = 1e-8) ?(max_iter = 100_000) obj net =
  Sgr_assign.Solver.solve ~method_:Frank_wolfe ~tol ~max_iter obj net

let msa ?(tol = 1e-6) ?(max_iter = 200_000) obj net =
  Sgr_assign.Solver.solve ~method_:Msa ~tol ~max_iter obj net
