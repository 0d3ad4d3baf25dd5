(** Summary statistics used throughout experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val min_max : float list -> float * float
(** Smallest and largest elements. Raises [Invalid_argument] on []. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank on sorted data.
    Raises [Invalid_argument] on []. *)

val improvement_pct : float -> float -> float
(** [improvement_pct base opt] is the percent reduction of [opt] relative to
    [base]: [(base - opt) / base * 100]; 0 when [base = 0]. *)
