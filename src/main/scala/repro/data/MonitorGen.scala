package repro.data

import repro.linalg.Rng

/** Synthetic analog of the DI2KG Monitor dataset (paper Table 2, App. A.1-2):
  * 24 sales websites, 13 attributes, extreme class imbalance (>99%
  * non-matching pairs) and heavy value sparsity.
  *
  * Reproduced structural properties:
  *  - Monitors come in '''product families''' (same brand / series / panel,
  *    different size / resolution / refresh) — the confusable siblings that
  *    make real product matching hard: a page title alone often cannot
  *    separate the 24" from the 27" variant.
  *  - `page_title` and `source` are near-universally present; the title
  *    concatenates brand/model/size/series descriptors with seller filler
  *    (App. A.2: the two close-to-1 attributes, and Table 4's dominant
  *    `Page_title_shared` feature).
  *  - 5 of 13 attributes (`prod_type`, `condition`, `refresh_rate`, `ports`,
  *    `weight`) have non-missing values '''only in the target domain''' —
  *    challenge C2 exactly as Fig. 11 reports. Four of them are
  *    entity-derived (informative if a model can learn to use them — which
  *    only support-set methods can); `condition` is per-listing noise.
  *  - remaining attributes have <50% non-missing pairs (C1) with different
  *    missingness per domain; `prod_type` values draw from different token
  *    distributions per domain (C3, Fig. 12); target sources reformat the
  *    page title (brand dropped, size re-rendered) (C3).
  */
final case class MonitorConfig(
    nMonitors: Int = 320,
    seed: Long = 99,
    pPresentSeen: Double = 0.45,
    pPresentUnseen: Double = 0.12,
)

object MonitorGen {
  val seenSources: Vector[String] =
    Vector("ebay", "catalog", "bestdeal", "cleverboxes", "pcpartpicker")
  val unseenSources: Vector[String] =
    Vector("shopmania", "yikus", "getprice", "priceme", "shopbot", "pricequebec",
      "buzzillions", "softwarecity", "flexshopper", "wallmartish", "topprice",
      "gadgetspain", "ukmart", "aupcshop", "cheapshop", "dealclick", "pcconnection",
      "megabuy", "shopify24")
  val sources: Vector[String] = seenSources ++ unseenSources

  /** 13 attributes (paper Table 2); the last five are target-only (C2). */
  val attrs: Vector[String] = Vector(
    "page_title", "source", "manufacturer", "brand", "model_name",
    "screen_size", "resolution", "price", "prod_type", "condition",
    "refresh_rate", "ports", "weight")

  val targetOnlyAttrs: Set[String] =
    Set("prod_type", "condition", "refresh_rate", "ports", "weight")

  private val brands = Vector("acer", "dell", "samsung", "lg", "asus", "benq",
    "viewsonic", "hp", "philips", "aoc", "nec", "eizo")
  private val resolutions = Vector("fullhd", "hd", "qhd", "uhd", "4k", "wqhd")
  private val prodTypesSeen = Vector("monitor", "display", "lcd")
  private val portsVals = Vector("hdmi", "vga", "dvi", "displayport", "usbc")
  private val panels = Vector("ips", "va", "tn", "oled")
  private val colors = Vector("black", "white", "silver", "gray")

  private final case class Family(brand: String, series: String, modelRoot: String,
                                  panel: String, color: String)
  private final case class Monitor(id: Long, fam: Family, size: Int, res: String,
                                   refresh: Int, ports: String, weightKg: Int, price: Int) {
    def model: String = s"${fam.modelRoot}$size"
    /** C3: target-domain prod_type vocabulary, derived from the entity. */
    def prodTypeUnseen: String =
      if (refresh >= 120) "gaming" else if (size >= 30) "ultrawide" else "led"
  }

  def generate(cfg: MonitorConfig): Seq[Rec] = {
    val rng = new Rng(cfg.seed)
    val seriesPool = Vocab.distinctWords(rng, 30)

    // Families of 1-3 sibling variants: same brand/series/root, different
    // size/res/refresh — the hard-negative structure of product catalogs.
    val monitors = {
      val out = Vector.newBuilder[Monitor]
      var id = 0L
      while (id < cfg.nMonitors) {
        val fam = Family(rng.pick(brands), rng.pick(seriesPool),
          Vocab.syllable(rng) + Vocab.syllable(rng).take(1), rng.pick(panels), rng.pick(colors))
        val variants = 1 + rng.nextInt(3)
        val sizes = rng.shuffle(Seq(19, 22, 24, 27, 30, 32, 34)).take(variants)
        sizes.foreach { size =>
          if (id < cfg.nMonitors) {
            id += 1
            out += Monitor(id, fam, size, rng.pick(resolutions),
              Seq(60, 75, 120, 144, 165)(rng.nextInt(5)), rng.pick(portsVals),
              3 + rng.nextInt(10), 80 + rng.nextInt(900))
          }
        }
      }
      out.result()
    }

    var recId = 0L
    val out = Vector.newBuilder[Rec]

    monitors.foreach { m =>
      var chosen = sources.filter(s => rng.nextBoolean(
        if (seenSources.contains(s)) cfg.pPresentSeen else cfg.pPresentUnseen))
      while (chosen.size < 2) chosen = sources.filter(s => rng.nextBoolean(
        if (seenSources.contains(s)) cfg.pPresentSeen else cfg.pPresentUnseen))

      chosen.foreach { src =>
        val seen = seenSources.contains(src)
        def p(prob: Double): Boolean = rng.nextBoolean(prob)
        def opt(prob: Double, v: => String): Option[String] = if (p(prob)) Some(v) else None

        // C3: target sources format page_title differently — brand sometimes
        // omitted, size written as separate tokens, more seller filler.
        val sizeToks = if (seen || p(0.5)) Seq(s"${m.size}in") else Seq(m.size.toString, "inch")
        val brandToks = if (seen || p(0.6)) Seq(m.fam.brand) else Seq.empty
        val descToks = Seq(m.fam.series, m.fam.panel, m.fam.color, m.res).filter(_ => p(0.6))
        val filler = Seq.fill((if (seen) 1 else 2) + rng.nextInt(if (seen) 2 else 3))(
          rng.pick(Vocab.fillerTokens))
        val title = (brandToks ++ Seq(m.model) ++ sizeToks ++ descToks ++
          Seq("monitor") ++ filler).mkString(" ")
        val prodType = if (seen) rng.pick(prodTypesSeen) else m.prodTypeUnseen
        val priceJitter = m.price + rng.nextInt(20) - 10

        val kv = Seq(
          "page_title" -> opt(0.97, title),
          "source" -> Some(s"$src shop"),
          "manufacturer" -> opt(if (seen) 0.55 else 0.45, s"${m.fam.brand} inc"),
          "brand" -> opt(if (seen) 0.50 else 0.35, m.fam.brand),
          "model_name" -> opt(if (seen) 0.45 else 0.40, m.model),
          "screen_size" -> opt(if (seen) 0.50 else 0.35, s"${m.size}in"),
          "resolution" -> opt(if (seen) 0.40 else 0.35, m.res),
          "price" -> opt(0.35, s"p${priceJitter / 50 * 50}"),
          // C2: target-only attributes — always missing in the seen domain.
          // All are at least weakly entity-derived (condition correlates
          // with the price band, with listing-level flips), so a model that
          // gets any target-domain supervision can exploit them; a
          // supervised-only model cannot. A pure per-listing coin flip here
          // would instead be a memorization key that poisons the shared
          // attention (DESIGN.md §5, local deviations).
          // High presence in the target domain: these are spec-table fields
          // on the unseen sites. Low presence would turn their `uni`
          // features into which-side-listed-it noise.
          "prod_type" -> (if (seen) None else opt(0.75, prodType)),
          "condition" -> (if (seen) None else opt(0.75, {
            val base = if (m.price < 400) "used" else "new"
            if (p(0.2)) (if (base == "new") "used" else "new") else base
          })),
          "refresh_rate" -> (if (seen) None else opt(0.80, s"${m.refresh}hz")),
          "ports" -> (if (seen) None else opt(0.80, m.ports)),
          "weight" -> (if (seen) None else opt(0.75, s"${m.weightKg}kg")),
        )
        recId += 1
        out += Rec(recId, src, m.id, "monitor", kv.collect { case (k, Some(v)) => k -> v }.toMap)
      }
    }
    out.result()
  }
}
