(* Order statistics shared by the suite and [compare].  Quartiles use
   the "exclusive" method of Python's [statistics.quantiles(n=4)], so
   the spreads the suite reports are the ones an external checker
   computes from the same raw values. *)

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_sorted (sorted_copy xs)

(* (q1, median, q3).  With one value all three are that value. *)
let quartiles xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, median_sorted a, q 3)

(* Median of the first [n] entries of an int array. *)
let median_prefix (a : int array) n =
  if n = 0 then nan
  else begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    if n land 1 = 1 then float_of_int s.(n / 2)
    else float_of_int (s.((n / 2) - 1) + s.(n / 2)) /. 2.
  end

(* Nearest-rank percentile [p] (0-100) of a sorted int array. *)
let percentile_sorted (s : int array) p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    float_of_int s.(max 0 (min (n - 1) (rank - 1)))
