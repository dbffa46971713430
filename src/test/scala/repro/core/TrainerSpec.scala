package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.{AD, Mats}

class TrainerSpec extends AnyFunSuite {

  test("a non-finite loss fails before any parameter moves") {
    val p = AD.leaf(Mats(1, 2)(1.0, -2.0))
    val trainer = new Trainer(Seq(p), lr = 0.1, weightDecay = 0.0)
    val finite = AD.sumAll(AD.mul(p, p))
    trainer.step(Loss(finite, "L_base" -> finite))
    val before = p.v.data.clone()
    val nan = AD.scale(AD.sumAll(p), Double.NaN)
    val e = intercept[ArithmeticException](trainer.step(Loss(nan, "L_base" -> nan)))
    assert(e.getMessage == "non-finite loss NaN at epoch 0, step 2: L_base not finite (L_base = NaN)")
    assert(java.util.Arrays.equals(p.v.data, before))
  }

  test("finite terms whose sum overflows are reported as such") {
    val p = AD.leaf(Mats(1, 1)(1e308))
    val trainer = new Trainer(Seq(p), lr = 0.1, weightDecay = 0.0)
    val t = AD.sumAll(p)
    val e = intercept[ArithmeticException](trainer.step(Loss(AD.add(t, t), "L_base" -> t, "KL" -> t)))
    assert(e.getMessage.startsWith("non-finite loss Infinity at epoch 0, step 1: its finite terms overflow"), e.getMessage)
  }
}
