package repro.linalg

/** Buffer scopes: per-thread recycling of the [[Mat]] data arrays of a
  * training step.
  *
  * Every step of a define-by-run tape builds the same shapes again, so the
  * arrays one step allocates are what the next one needs. While a scope is
  * open on a thread ([[scoped]]), the `Mat` and `AD` ops take their data
  * arrays from that thread's free list of the requested length; closing the
  * scope returns every array handed out inside it to those lists. Scopes
  * nest: closing an inner scope returns only the arrays taken since it
  * opened. Outside every scope (Spark tasks, tests) the ops
  * allocate fresh arrays, as if no scope existed.
  *
  * The lifetime rule, which the callers keep:
  *  - a `Mat` created inside a scope is not read after the scope closes;
  *  - what lives across steps is allocated outside every scope: parameters
  *    (`AD.leaf` requires no open scope and allocates a parameter's gradient
  *    buffer there) and Adam's moments.
  *
  * A free list keeps its arrays after the scope closes, so a thread holds at
  * most the largest set of arrays one of its scopes had out at once.
  */
object Buffers {

  private val pools = new ThreadLocal[Pool]

  /** Runs `body` in a new buffer scope on this thread; every array handed
    * out inside it is recycled when it returns or throws. */
  def scoped[T](body: => T): T = {
    var pool = pools.get
    if (pool == null) { pool = new Pool; pools.set(pool) }
    val mark = pool.open()
    try body finally pool.close(mark)
  }

  /** Whether a buffer scope is open on this thread. */
  private[linalg] def inScope: Boolean = { val pool = pools.get; pool != null && pool.depth > 0 }

  /** `n` doubles whose entries are unspecified (inside a scope, an earlier
    * step's values): the caller writes every one. */
  private[linalg] def array(n: Int): Array[Double] = take(n, zero = false)

  /** `n` zeros. */
  private[linalg] def zeroedArray(n: Int): Array[Double] = take(n, zero = true)

  private def take(n: Int, zero: Boolean): Array[Double] = {
    val pool = pools.get
    if (pool == null || pool.depth == 0 || n == 0) new Array[Double](n) else pool.take(n, zero)
  }

  /** The gather scratch of one product with `capacity` factors per row: the
    * thread's own inside a scope (a product does not nest another), else a
    * new one. */
  private[linalg] def nonZeros(capacity: Int): Mat.NonZeros = {
    val pool = pools.get
    if (pool == null || pool.depth == 0) new Mat.NonZeros(capacity)
    else {
      if (pool.nz == null || pool.nz.capacity < capacity) pool.nz = new Mat.NonZeros(capacity)
      pool.nz
    }
  }

  /** Whether `a` is held by this thread's free lists or open scopes (the
    * lifetime-rule tests ask this of the buffers that must never be). */
  private[linalg] def holds(a: Array[Double]): Boolean = {
    val pool = pools.get
    pool != null && pool.holds(a)
  }

  /** The free arrays of one length, last returned first. */
  private final class FreeList(val length: Int) {
    var items = new Array[Array[Double]](4)
    var size = 0

    def push(a: Array[Double]): Unit = {
      if (size == items.length) items = java.util.Arrays.copyOf(items, 2 * size)
      items(size) = a
      size += 1
    }
  }

  /** One thread's free lists, in an open-addressed table keyed by length,
    * and the arrays its open scopes have handed out, oldest first. */
  private final class Pool {
    var depth = 0
    var nz: Mat.NonZeros = null
    private var handed = new Array[Array[Double]](64)
    private var nHanded = 0
    private var table = new Array[FreeList](32)
    private var nLists = 0

    def open(): Int = { depth += 1; nHanded }

    def close(mark: Int): Unit = {
      var i = mark
      while (i < nHanded) { val a = handed(i); freeList(a.length).push(a); handed(i) = null; i += 1 }
      nHanded = mark
      depth -= 1
    }

    def take(n: Int, zero: Boolean): Array[Double] = {
      val free = freeList(n)
      val a = if (free.size == 0) new Array[Double](n) else {
        free.size -= 1
        val r = free.items(free.size)
        free.items(free.size) = null
        if (zero) java.util.Arrays.fill(r, 0.0)
        r
      }
      if (nHanded == handed.length) handed = java.util.Arrays.copyOf(handed, 2 * nHanded)
      handed(nHanded) = a
      nHanded += 1
      a
    }

    def holds(a: Array[Double]): Boolean =
      (0 until nHanded).exists(handed(_) eq a) ||
        table.exists(fl => fl != null && (0 until fl.size).exists(fl.items(_) eq a))

    private def slot(n: Int, mask: Int): Int = ((n * 0x9E3779B9) >>> 16) & mask

    private def freeList(n: Int): FreeList = {
      val mask = table.length - 1
      var i = slot(n, mask)
      while (table(i) != null && table(i).length != n) i = (i + 1) & mask
      if (table(i) != null) table(i)
      else {
        val fl = new FreeList(n)
        table(i) = fl
        nLists += 1
        if (2 * nLists > table.length) grow()
        fl
      }
    }

    private def grow(): Unit = {
      val old = table
      table = new Array[FreeList](2 * old.length)
      val mask = table.length - 1
      old.foreach { fl =>
        if (fl != null) {
          var i = slot(fl.length, mask)
          while (table(i) != null) i = (i + 1) & mask
          table(i) = fl
        }
      }
    }
  }
}
