package repro.core.lp

/** Exact solver for the data-level partitioning LP (paper Eq. 3).
  *
  * In effective-load-factor space `e_i = Π_{j≤i} p_j` the problem is
  *
  *   minimize   Σ_i R_{i-1} σ_i (e_{i-1} − e_i)        (drained bytes)
  *   subject to Σ_i R_{i-1} c_i e_i ≤ β,               (CPU per input record)
  *              0 ≤ e_M ≤ … ≤ e_1 ≤ 1,  e_0 = 1
  *
  * where R_k = Π_{j≤k} ρ_j is the record-relay product, σ_i the wire bytes
  * per record at operator i's input, c_i the CPU cost per record and
  * β = C / N_r the budget per input record.
  *
  * Every chain-monotone `e` decomposes uniquely as a conic combination of
  * prefix indicator vectors: e = Σ_k t_k · 1_{1..k} with t_k = e_k − e_{k+1}
  * ≥ 0 and Σ t_k = e_1 ≤ 1. In `t` the problem is a two-constraint LP
  *
  *   maximize Σ_k t_k W_k   s.t.  Σ_k t_k A_k ≤ β,  Σ_k t_k ≤ 1,  t ≥ 0
  *
  * with prefix gain W_k = σ_1 − R_k σ_{k+1} (W_M = σ_1, the final output is
  * a result, not a drain) and prefix cost A_k = Σ_{i≤k} R_{i-1} c_i. A
  * two-constraint LP attains its optimum at a basic solution with at most
  * two positive coordinates, so enumerating singletons and tight pairs is
  * exact — no iterative solver needed.
  */
object LoadFactorLP {

  /** Solved plan.
    *
    * @param e effective load factors (length M, monotone non-increasing)
    * @param p per-proxy load factors p_i = e_i / e_{i-1}
    * @param drainedBytesPerRec expected drained wire bytes per input record
    * @param cpuSecPerRec expected CPU seconds per input record
    */
  final case class Solution(
      e: Vector[Double],
      p: Vector[Double],
      drainedBytesPerRec: Double,
      cpuSecPerRec: Double,
  )

  private val Eps = 1e-12

  /** Solve for M operators.
    *
    * @param costs        c_i, CPU-seconds per record at operator i's input
    * @param recRelays    ρ_i, output records per input record
    * @param bytesAtOp    σ_i, wire bytes per record at operator i's input
    * @param budgetPerRec β = C / N_r, CPU-seconds per source input record
    */
  def solve(
      costs: Vector[Double],
      recRelays: Vector[Double],
      bytesAtOp: Vector[Double],
      budgetPerRec: Double,
  ): Solution = {
    val m = costs.length
    require(m > 0 && recRelays.length == m && bytesAtOp.length == m, "ragged LP inputs")
    require(costs.forall(_ >= 0) && bytesAtOp.forall(_ >= 0), "negative LP inputs")
    require(recRelays.forall(r => r >= 0 && r <= 1), "record relay out of [0,1]")
    val beta = math.max(0.0, budgetPerRec)

    // R_k for k = 0..M
    val rProd = recRelays.scanLeft(1.0)(_ * _)
    // Prefix cost A_k and gain W_k for k = 1..M (index k-1 in the arrays).
    val a = Vector.tabulate(m)(i => rProd(i) * costs(i))
    val prefixCost = a.scanLeft(0.0)(_ + _).drop(1)
    val sigma1 = bytesAtOp.head
    val prefixGain = Vector.tabulate(m) { k =>
      if (k == m - 1) sigma1
      else sigma1 - rProd(k + 1) * bytesAtOp(k + 1)
    }

    // Enumerate basic feasible solutions of the 2-constraint LP in t.
    var bestVal = 0.0
    var bestT = Vector.fill(m)(0.0)
    def consider(t: Vector[Double]): Unit = {
      val total = t.sum
      val cost = t.iterator.zip(prefixCost.iterator).map { case (ti, ai) => ti * ai }.sum
      if (t.forall(_ >= -Eps) && total <= 1 + 1e-9 && cost <= beta + math.max(1e-9, beta * 1e-9)) {
        val v = t.iterator.zip(prefixGain.iterator).map { case (ti, wi) => ti * wi }.sum
        if (v > bestVal + Eps) { bestVal = v; bestT = t.map(x => math.max(0.0, math.min(1.0, x))) }
      }
    }
    // Singletons: one prefix, budget- or cap-limited.
    for (k <- 0 until m) {
      val tk = if (prefixCost(k) <= Eps) 1.0 else math.min(1.0, beta / prefixCost(k))
      consider(Vector.tabulate(m)(i => if (i == k) tk else 0.0))
    }
    // Pairs with both constraints tight.
    for (k <- 0 until m; l <- (k + 1) until m if math.abs(prefixCost(k) - prefixCost(l)) > Eps) {
      val tk = (beta - prefixCost(l)) / (prefixCost(k) - prefixCost(l))
      val tl = 1.0 - tk
      if (tk >= -Eps && tl >= -Eps)
        consider(Vector.tabulate(m)(i => if (i == k) tk else if (i == l) tl else 0.0))
    }

    // Recover e from t: e_i = Σ_{k ≥ i} t_k.
    val e = Vector.tabulate(m)(i => math.min(1.0, bestT.drop(i).sum))
    Solution(e, eToP(e), drainedBytes(e, recRelays, bytesAtOp), cpuSec(e, recRelays, costs))
  }

  /** Expected drained wire bytes per input record for a plan `e`. */
  def drainedBytes(e: Vector[Double], recRelays: Vector[Double], bytesAtOp: Vector[Double]): Double = {
    val rProd = recRelays.scanLeft(1.0)(_ * _)
    e.indices.map { i =>
      val prev = if (i == 0) 1.0 else e(i - 1)
      rProd(i) * bytesAtOp(i) * (prev - e(i))
    }.sum
  }

  /** Expected CPU seconds per input record for a plan `e`. */
  def cpuSec(e: Vector[Double], recRelays: Vector[Double], costs: Vector[Double]): Double = {
    val rProd = recRelays.scanLeft(1.0)(_ * _)
    e.indices.map(i => rProd(i) * costs(i) * e(i)).sum
  }

  /** Convert per-proxy load factors p to effective load factors e. */
  def pToE(p: Vector[Double]): Vector[Double] = p.scanLeft(1.0)(_ * _).drop(1)

  /** Convert effective load factors e to per-proxy load factors p
    * (p_i = 1 where no records arrive).
    */
  def eToP(e: Vector[Double]): Vector[Double] =
    Vector.tabulate(e.length) { i =>
      val prev = if (i == 0) 1.0 else e(i - 1)
      if (prev < Eps) 1.0 else math.min(1.0, e(i) / prev)
    }
}
