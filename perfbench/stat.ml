(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a =
  let a = sorted a and n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
