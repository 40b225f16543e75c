type t =
  | Fadd
  | Fmul
  | Fmadd
  | Fadd_dp
  | Fmul_dp
  | Fmadd_dp
  | Fdiv_dp
  | Fsqrt_dp
  | Fdiv
  | Fsqrt
  | Frecip_est
  | Frsqrt_est
  | Fcmp
  | Fsel
  | Fcopysign
  | Fconvert
  | Ialu
  | Load
  | Store
  | Shuffle
  | Branch_taken
  | Branch_not_taken
  | Branch_miss

let to_string = function
  | Fadd -> "fadd"
  | Fmul -> "fmul"
  | Fmadd -> "fmadd"
  | Fadd_dp -> "fadd.dp"
  | Fmul_dp -> "fmul.dp"
  | Fmadd_dp -> "fmadd.dp"
  | Fdiv_dp -> "fdiv.dp"
  | Fsqrt_dp -> "fsqrt.dp"
  | Fdiv -> "fdiv"
  | Fsqrt -> "fsqrt"
  | Frecip_est -> "frecip_est"
  | Frsqrt_est -> "frsqrt_est"
  | Fcmp -> "fcmp"
  | Fsel -> "fsel"
  | Fcopysign -> "fcopysign"
  | Fconvert -> "fconvert"
  | Ialu -> "ialu"
  | Load -> "load"
  | Store -> "store"
  | Shuffle -> "shuffle"
  | Branch_taken -> "branch_taken"
  | Branch_not_taken -> "branch_not_taken"
  | Branch_miss -> "branch_miss"

let is_memory = function Load | Store -> true | _ -> false

let is_double_precision = function
  | Fadd_dp | Fmul_dp | Fmadd_dp | Fdiv_dp | Fsqrt_dp -> true
  | _ -> false

let flops = function
  | Fmadd | Fmadd_dp -> 2
  | Fadd | Fmul | Fadd_dp | Fmul_dp | Fdiv | Fdiv_dp | Fsqrt | Fsqrt_dp
  | Frecip_est | Frsqrt_est ->
      1
  | Fcmp | Fsel | Fcopysign | Fconvert | Ialu | Load | Store | Shuffle
  | Branch_taken | Branch_not_taken | Branch_miss ->
      0

let all =
  [ Fadd; Fmul; Fmadd; Fadd_dp; Fmul_dp; Fmadd_dp; Fdiv_dp; Fsqrt_dp; Fdiv;
    Fsqrt; Frecip_est; Frsqrt_est; Fcmp; Fsel; Fcopysign; Fconvert; Ialu;
    Load; Store; Shuffle; Branch_taken; Branch_not_taken; Branch_miss ]
